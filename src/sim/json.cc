#include "json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "logging.hh"

namespace csb::sim {

namespace {

/**
 * Pass @p s to @p out in pieces, escaped per RFC 8259: runs that need
 * no escaping go through as views of @p s, so nothing is copied.
 */
template <typename Out>
void
escapePieces(std::string_view s, Out &&out)
{
    std::size_t run = 0; // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        char buf[8];
        const char *escaped = buf;
        switch (c) {
          case '"': escaped = "\\\""; break;
          case '\\': escaped = "\\\\"; break;
          case '\b': escaped = "\\b"; break;
          case '\f': escaped = "\\f"; break;
          case '\n': escaped = "\\n"; break;
          case '\r': escaped = "\\r"; break;
          case '\t': escaped = "\\t"; break;
          default:
            if (c >= 0x20)
                continue;
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        }
        out(s.substr(run, i - run));
        out(std::string_view(escaped));
        run = i + 1;
    }
    out(s.substr(run));
}

/** Format @p v into @p buf the way JsonWriter::value(double) does. */
std::string_view
formatNumber(double v, char (&buf)[40])
{
    // std::to_chars, unlike snprintf, is locale-independent: under a
    // comma-decimal LC_NUMERIC (e.g. de_DE) "%.12g" would print
    // "4,00" and silently corrupt every artifact.  The chars_format
    // output below is specified to match printf "%.12g" in the "C"
    // locale, so artifacts stay byte-identical on any machine.
    if (!std::isfinite(v))
        return "null"; // JSON has no NaN/Inf
    // 2^53: largest range where every integer is exact in a double.
    if (v == std::floor(v) && std::fabs(v) <= 9007199254740992.0) {
        auto res = std::to_chars(buf, buf + sizeof(buf),
                                 static_cast<long long>(v));
        return std::string_view(buf, res.ptr - buf);
    }
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, 12);
    csb_assert(res.ec == std::errc(), "jsonNumber buffer too small");
    return std::string_view(buf, res.ptr - buf);
}

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    escapePieces(s, [&out](std::string_view piece) { out += piece; });
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    return std::string(formatNumber(v, buf));
}

void
JsonWriter::separator()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (!scopes_.empty()) {
        if (hasItems_.back())
            raw(",");
        hasItems_.back() = true;
        newline();
    }
}

void
JsonWriter::newline()
{
    if (indent_ <= 0)
        return;
    raw("\n");
    raw(std::string(indent_ * scopes_.size(), ' '));
}

void
JsonWriter::raw(std::string_view text)
{
    os_ << text;
}

void
JsonWriter::quoted(std::string_view s)
{
    raw("\"");
    escapePieces(s, [this](std::string_view piece) { raw(piece); });
    raw("\"");
}

JsonWriter &
JsonWriter::beginObject()
{
    separator();
    raw("{");
    scopes_.push_back(Scope::Object);
    hasItems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    csb_assert(!scopes_.empty() && scopes_.back() == Scope::Object,
               "endObject outside an object");
    bool had_items = hasItems_.back();
    scopes_.pop_back();
    hasItems_.pop_back();
    if (had_items)
        newline();
    raw("}");
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separator();
    raw("[");
    scopes_.push_back(Scope::Array);
    hasItems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    csb_assert(!scopes_.empty() && scopes_.back() == Scope::Array,
               "endArray outside an array");
    bool had_items = hasItems_.back();
    scopes_.pop_back();
    hasItems_.pop_back();
    if (had_items)
        newline();
    raw("]");
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    csb_assert(!scopes_.empty() && scopes_.back() == Scope::Object,
               "key() outside an object");
    separator();
    quoted(k);
    raw(indent_ > 0 ? ": " : ":");
    afterKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    separator();
    quoted(v);
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separator();
    char buf[40];
    raw(formatNumber(v, buf));
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separator();
    raw(std::to_string(v));
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separator();
    raw(std::to_string(v));
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

} // namespace csb::sim
