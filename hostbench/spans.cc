#include "spans.hh"

#include <fstream>

namespace hostbench {

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

SpanRecorder::Scope::Scope(SpanRecorder &rec, const char *name) : rec_(rec)
{
    if (!rec_.enabled_)
        return;
    index_ = static_cast<std::int32_t>(rec_.spans_.size());
    rec_.spans_.push_back({name, rec_.nowNs(), 0, rec_.open_, rec_.op_});
    rec_.open_ = index_;
}

SpanRecorder::Scope::~Scope()
{
    if (index_ < 0)
        return;
    Span &span = rec_.spans_[static_cast<std::size_t>(index_)];
    span.endNs = rec_.nowNs();
    rec_.open_ = span.parent;
}

std::map<std::string, double>
SpanRecorder::selfTimeNs() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = static_cast<double>(spans_[i].endNs - spans_[i].startNs);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent >= 0) {
            self[static_cast<std::size_t>(spans_[i].parent)] -=
                static_cast<double>(spans_[i].endNs - spans_[i].startNs);
        }
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        by_name[spans_[i].name] += self[i];
    return by_name;
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "  {\"id\": " << i << ", \"name\": \"" << s.name
           << "\", \"start_ns\": " << s.startNs
           << ", \"end_ns\": " << s.endNs << ", \"parent\": " << s.parent
           << ", \"op\": " << s.op << "}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return static_cast<bool>(os);
}

} // namespace hostbench
