#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "checkpoint.hh"
#include "json.hh"

namespace csb::sim::stats {

StatBase::StatBase(StatGroup *parent, Literal name, Literal desc)
    : name_(name.view()), desc_(desc.view())
{
    csb_assert(parent != nullptr, "stat '", name_, "' needs a group");
    (parent->lastStat_ ? parent->lastStat_->next_ : parent->firstStat_) =
        this;
    parent->lastStat_ = this;
}

void
Scalar::dumpJson(JsonWriter &jw) const
{
    jw.beginObject();
    jw.kv("type", "scalar");
    jw.kv("desc", desc());
    jw.kv("value", value_);
    jw.endObject();
}

Distribution::Distribution(StatGroup *parent, Literal name, Literal desc,
                           double min, double max, double bucket_size)
    : StatBase(parent, name, desc),
      min_(min), max_(max), bucketSize_(bucket_size)
{
    csb_assert(max > min && bucket_size > 0, "bad distribution shape");
    buckets_.resize(static_cast<std::size_t>((max - min) / bucket_size) + 1);
}

void
Distribution::sample(double v, std::uint64_t count)
{
    if (samples_ == 0) {
        minSampled_ = v;
        maxSampled_ = v;
    } else {
        minSampled_ = std::min(minSampled_, v);
        maxSampled_ = std::max(maxSampled_, v);
    }
    samples_ += count;
    sum_ += v * count;
    if (v < min_) {
        underflow_ += count;
    } else if (v > max_) {
        overflow_ += count;
    } else {
        auto idx = static_cast<std::size_t>((v - min_) / bucketSize_);
        idx = std::min(idx, buckets_.size() - 1);
        buckets_[idx] += count;
    }
}

double
Distribution::percentile(double p) const
{
    if (samples_ == 0)
        return 0.0;
    p = std::min(std::max(p, 0.0), 1.0);
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(samples_)));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t cum = underflow_;
    if (rank <= cum)
        return minSampled_;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        cum += buckets_[i];
        if (rank <= cum)
            return std::min(min_ + (i + 1) * bucketSize_, max_);
    }
    return maxSampled_;
}

void
Distribution::dumpJson(JsonWriter &jw) const
{
    jw.beginObject();
    jw.kv("type", "distribution");
    jw.kv("desc", desc());
    jw.kv("min", min_);
    jw.kv("max", max_);
    jw.kv("bucket_size", bucketSize_);
    jw.kv("samples", samples_);
    jw.kv("mean", mean());
    jw.kv("min_sampled", minSampled_);
    jw.kv("max_sampled", maxSampled_);
    jw.kv("underflow", underflow_);
    jw.kv("overflow", overflow_);
    jw.kv("p50", percentile(0.50));
    jw.kv("p90", percentile(0.90));
    jw.kv("p99", percentile(0.99));
    jw.key("buckets");
    jw.beginArray();
    for (std::uint64_t b : buckets_)
        jw.value(b);
    jw.endArray();
    jw.endObject();
}

void
Formula::dumpJson(JsonWriter &jw) const
{
    jw.beginObject();
    jw.kv("type", "formula");
    jw.kv("desc", desc());
    jw.kv("value", value());
    jw.endObject();
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (!parent_)
        return;
    prevSibling_ = parent_->lastChild_;
    (prevSibling_ ? prevSibling_->nextSibling_ : parent_->firstChild_) =
        this;
    parent_->lastChild_ = this;
}

StatGroup::~StatGroup()
{
    if (!parent_)
        return;
    (prevSibling_ ? prevSibling_->nextSibling_ : parent_->firstChild_) =
        nextSibling_;
    (nextSibling_ ? nextSibling_->prevSibling_ : parent_->lastChild_) =
        prevSibling_;
}

std::string
StatGroup::fullStatName() const
{
    if (!parent_)
        return name_;
    std::string parent_name = parent_->fullStatName();
    return parent_name.empty() ? name_ : parent_name + "." + name_;
}

void
StatGroup::dumpJson(JsonWriter &jw) const
{
    jw.beginObject();
    for (const StatBase *stat = firstStat_; stat; stat = stat->next_) {
        jw.key(stat->name());
        stat->dumpJson(jw);
    }
    for (const StatGroup *child = firstChild_; child;
         child = child->nextSibling_) {
        jw.key(child->statName());
        child->dumpJson(jw);
    }
    jw.endObject();
}

void
StatGroup::dumpStatsJson(std::ostream &os, int indent) const
{
    JsonWriter jw(os, indent);
    dumpJson(jw);
    os << "\n";
}

void
Scalar::checkpointSave(CheckpointWriter &cw) const
{
    cw.putF64(value_);
}

void
Scalar::checkpointRestore(CheckpointReader &cr)
{
    value_ = cr.getF64();
}

void
Distribution::checkpointSave(CheckpointWriter &cw) const
{
    cw.putU64(buckets_.size());
    for (std::uint64_t bucket : buckets_)
        cw.putU64(bucket);
    cw.putU64(underflow_);
    cw.putU64(overflow_);
    cw.putU64(samples_);
    cw.putF64(sum_);
    cw.putF64(minSampled_);
    cw.putF64(maxSampled_);
}

void
Distribution::checkpointRestore(CheckpointReader &cr)
{
    const std::uint64_t n = cr.getU64();
    if (n != buckets_.size())
        csb_fatal("checkpoint distribution '", name(), "' has ", n,
                  " buckets, this configuration has ", buckets_.size());
    for (std::uint64_t &bucket : buckets_)
        bucket = cr.getU64();
    underflow_ = cr.getU64();
    overflow_ = cr.getU64();
    samples_ = cr.getU64();
    sum_ = cr.getF64();
    minSampled_ = cr.getF64();
    maxSampled_ = cr.getF64();
}

void
StatGroup::checkpointSaveStats(CheckpointWriter &cw) const
{
    for (const StatBase *stat = firstStat_; stat; stat = stat->next_) {
        cw.putStr(stat->name());
        cw.putU8(stat->checkpointTag());
        stat->checkpointSave(cw);
    }
    for (const StatGroup *child = firstChild_; child;
         child = child->nextSibling_) {
        cw.putStr(child->statName());
        child->checkpointSaveStats(cw);
    }
}

void
StatGroup::checkpointRestoreStats(CheckpointReader &cr)
{
    for (StatBase *stat = firstStat_; stat; stat = stat->next_) {
        const std::string_view name = cr.getStr();
        if (name != stat->name())
            csb_fatal("checkpoint stat mismatch in group '",
                      fullStatName(), "': expected '", stat->name(),
                      "', found '", name, "'");
        const std::uint8_t tag = cr.getU8();
        if (tag != stat->checkpointTag())
            csb_fatal("checkpoint stat '", name, "' has type tag ",
                      unsigned(tag), ", this build expects ",
                      unsigned(stat->checkpointTag()));
        stat->checkpointRestore(cr);
    }
    for (StatGroup *child = firstChild_; child; child = child->nextSibling_) {
        const std::string_view name = cr.getStr();
        if (name != child->statName())
            csb_fatal("checkpoint group mismatch in '", fullStatName(),
                      "': expected '", child->statName(), "', found '",
                      name, "'");
        child->checkpointRestoreStats(cr);
    }
}

} // namespace csb::sim::stats
