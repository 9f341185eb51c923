/**
 * @file
 * Error / status reporting in the spirit of gem5's logging.hh.
 *
 * panic()  -- an internal simulator invariant was violated (a bug);
 *             aborts the process.
 * fatal()  -- the simulation cannot continue because of a user error
 *             (bad configuration, invalid parameters); throws
 *             FatalError so that tests can assert on misconfiguration.
 * warn()   -- something may be modelled imprecisely; keep running.
 */

#ifndef CSB_SIM_LOGGING_HH
#define CSB_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace csb {

/** Exception thrown by fatal(); carries the formatted message. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

/** Concatenate any streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/**
 * @return @p params after params.validate(), which throws FatalError
 * on a bad config.  Lets a constructor check its parameters in its
 * member-initializer list, before sizing members by them.
 */
template <typename Params>
const Params &
validated(const Params &params)
{
    params.validate();
    return params;
}

/** Control whether warn() prints to stderr (tests silence it). */
void setLogQuiet(bool quiet);
bool logQuiet();

} // namespace csb

#define csb_panic(...) \
    ::csb::detail::panicImpl(__FILE__, __LINE__, \
                             ::csb::detail::concat(__VA_ARGS__))

#define csb_fatal(...) \
    ::csb::detail::fatalImpl(__FILE__, __LINE__, \
                             ::csb::detail::concat(__VA_ARGS__))

#define csb_warn(...) \
    ::csb::detail::warnImpl(::csb::detail::concat(__VA_ARGS__))

/** Panic unless a simulator invariant holds. */
#define csb_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::csb::detail::panicImpl(__FILE__, __LINE__, \
                ::csb::detail::concat("assertion '", #cond, \
                                      "' failed ", ##__VA_ARGS__)); \
        } \
    } while (0)

#endif // CSB_SIM_LOGGING_HH
