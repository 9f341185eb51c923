/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Statistics register themselves with a StatGroup; groups form a tree
 * rooted at the owning component.  dumpStatsJson() renders the tree as
 * JSON, and every stat can be read programmatically by the benchmark
 * harness.
 *
 * Building the tree allocates nothing per stat: a stat borrows its
 * name and description, which are string literals (see Literal), and
 * a group links its stats and child groups into intrusive lists in
 * registration order, so registering is O(1) and so is a destroyed
 * group unlinking itself from its parent.
 */

#ifndef CSB_SIM_STATS_HH
#define CSB_SIM_STATS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "logging.hh"

namespace csb::sim {
class JsonWriter;
class CheckpointWriter;
class CheckpointReader;
} // namespace csb::sim

namespace csb::sim::stats {

class StatGroup;

/**
 * A stat's name or description: a string literal, borrowed for the
 * whole run.  The constructor is consteval and takes only a character
 * array, so an argument that does not outlive the stat -- a
 * std::string, its c_str(), a local buffer -- fails to compile instead
 * of dangling.
 */
class Literal
{
  public:
    template <std::size_t N>
    consteval Literal(const char (&text)[N]) : view_(text, N - 1)
    {}

    constexpr std::string_view view() const { return view_; }

  private:
    std::string_view view_;
};

/** Base class for all statistics. */
class StatBase
{
  public:
    StatBase(StatGroup *parent, Literal name, Literal desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    std::string_view name() const { return name_; }
    std::string_view desc() const { return desc_; }

    /**
     * Render the stat as a JSON object ("type"/"desc"/values).  The
     * caller has already emitted the enclosing key.
     */
    virtual void dumpJson(JsonWriter &jw) const = 0;

    /**
     * Append this stat's mutable state to the open checkpoint section
     * (docs/CHECKPOINT.md).  Formula writes nothing -- it is derived.
     * The tree walk (StatGroup::checkpointSaveStats) prefixes each
     * stat with its name and checkpointTag(), so restore verifies it
     * is consuming the stat it expects before touching any state.
     */
    virtual void checkpointSave(CheckpointWriter &cw) const = 0;

    /** Restore the state written by checkpointSave(). */
    virtual void checkpointRestore(CheckpointReader &cr) = 0;

    /** One-byte CSBC type tag identifying the concrete stat type. */
    virtual std::uint8_t checkpointTag() const = 0;

  private:
    friend class StatGroup;

    std::string_view name_;
    std::string_view desc_;
    /** The next stat of the owning group, in registration order. */
    StatBase *next_ = nullptr;
};

/** Monotonic or signed scalar counter. */
class Scalar : public StatBase
{
  public:
    Scalar(StatGroup *parent, Literal name, Literal desc)
        : StatBase(parent, name, desc)
    {}

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator=(double v) { value_ = v; return *this; }

    double value() const { return value_; }

    void dumpJson(JsonWriter &jw) const override;

    void checkpointSave(CheckpointWriter &cw) const override;
    void checkpointRestore(CheckpointReader &cr) override;
    std::uint8_t checkpointTag() const override { return 1; }

  private:
    double value_ = 0;
};

/** Fixed-bucket histogram with underflow/overflow. */
class Distribution : public StatBase
{
  public:
    Distribution(StatGroup *parent, Literal name, Literal desc,
                 double min, double max, double bucket_size);

    void sample(double v, std::uint64_t count = 1);

    std::uint64_t totalSamples() const { return samples_; }
    double mean() const { return samples_ ? sum_ / samples_ : 0.0; }
    double minSampled() const { return minSampled_; }
    double maxSampled() const { return maxSampled_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /**
     * Value at or below which a fraction @p p of samples fall,
     * resolved to bucket granularity (upper bucket edge).
     *
     * @param p fraction in (0, 1]; e.g. 0.5 for the median.
     * @return 0 when no samples have been recorded.
     */
    double percentile(double p) const;

    void dumpJson(JsonWriter &jw) const override;

    void checkpointSave(CheckpointWriter &cw) const override;
    void checkpointRestore(CheckpointReader &cr) override;
    std::uint8_t checkpointTag() const override { return 3; }

  private:
    double min_;
    double max_;
    double bucketSize_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    double sum_ = 0;
    double minSampled_ = 0;
    double maxSampled_ = 0;
};

/** Derived value computed on demand from other stats. */
class Formula : public StatBase
{
  public:
    Formula(StatGroup *parent, Literal name, Literal desc,
            std::function<double()> fn)
        : StatBase(parent, name, desc), fn_(std::move(fn))
    {}

    double value() const { return fn_(); }

    void dumpJson(JsonWriter &jw) const override;

    void checkpointSave(CheckpointWriter &) const override {}
    void checkpointRestore(CheckpointReader &) override {}
    std::uint8_t checkpointTag() const override { return 4; }

  private:
    std::function<double()> fn_;
};

/**
 * A named collection of statistics and child groups.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &statName() const { return name_; }

    /** Fully qualified dotted name. */
    std::string fullStatName() const;

    /**
     * Serialize this group as a JSON object: one member per stat
     * (rendered by StatBase::dumpJson) and one per child group,
     * nested recursively.  The caller has already emitted the
     * enclosing key (or this is the document root).
     */
    void dumpJson(JsonWriter &jw) const;

    /**
     * Convenience wrapper: write a complete JSON document for this
     * group's subtree to @p os.
     *
     * @param os     sink for the document.
     * @param indent spaces per nesting level; 0 emits compact JSON.
     */
    void dumpStatsJson(std::ostream &os, int indent = 2) const;

    /**
     * Serialize every stat of this subtree (depth first, registration
     * order) into the open checkpoint section: per stat, its name, a
     * type tag and its state; per child group, its name.  The restore
     * walk demands an identically shaped tree -- it is only valid on
     * a freshly built, identically configured component.
     */
    void checkpointSaveStats(CheckpointWriter &cw) const;

    /** Restore the subtree written by checkpointSaveStats(). */
    void checkpointRestoreStats(CheckpointReader &cr);

  private:
    friend class StatBase;

    std::string name_;
    StatGroup *parent_;
    // Intrusive lists in registration order: the stats through
    // StatBase::next_, the child groups through their sibling links.
    StatBase *firstStat_ = nullptr;
    StatBase *lastStat_ = nullptr;
    StatGroup *firstChild_ = nullptr;
    StatGroup *lastChild_ = nullptr;
    StatGroup *prevSibling_ = nullptr;
    StatGroup *nextSibling_ = nullptr;
};

} // namespace csb::sim::stats

#endif // CSB_SIM_STATS_HH
