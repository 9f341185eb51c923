/**
 * @file
 * Minimal streaming JSON writer shared by the stats exporter, the
 * Chrome trace-event writer, and the benchmark --json reports.
 *
 * The writer tracks nesting and comma placement so callers only name
 * structure: beginObject()/endObject(), beginArray()/endArray(),
 * key("name"), value(...).  Output is deterministic: integral doubles
 * are printed as integers, everything else with %.12g, and strings are
 * escaped per RFC 8259.
 */

#ifndef CSB_SIM_JSON_HH
#define CSB_SIM_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace csb::sim {

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string jsonEscape(std::string_view s);

/** Format @p v the way JsonWriter::value(double) does. */
std::string jsonNumber(double v);

/** Comma-and-indentation-tracking JSON emitter. */
class JsonWriter
{
  public:
    /**
     * @param os     sink for the document (not owned).
     * @param indent spaces per nesting level; 0 emits compact JSON.
     */
    explicit JsonWriter(std::ostream &os, int indent = 2)
        : os_(os), indent_(indent)
    {}

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be followed by a value or container. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    // A string literal would otherwise convert to bool, not string_view.
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v);
    // A bool would otherwise promote to int and print as a number.
    JsonWriter &value(bool v) = delete;

    /** key(k) followed by value(v), for any supported value type. */
    template <typename T>
    JsonWriter &
    kv(std::string_view k, T &&v)
    {
        key(k);
        return value(std::forward<T>(v));
    }

  private:
    enum class Scope { Object, Array };

    void separator();
    void newline();
    void raw(std::string_view text);
    /** @p s escaped and quoted. */
    void quoted(std::string_view s);

    std::ostream &os_;
    int indent_;
    std::vector<Scope> scopes_;
    std::vector<bool> hasItems_;
    bool afterKey_ = false;
};

} // namespace csb::sim

#endif // CSB_SIM_JSON_HH
