/**
 * @file
 * Command-line flags for the bench drivers and tools. Every flag but
 * a switch takes exactly one value (`--name VALUE`). An unknown flag
 * (including `--help`), a missing value, a malformed or out-of-range
 * integer or an unknown platform prints the usage text to stderr and
 * exits with status 2, so a mistyped flag can never run a sweep with
 * defaults it did not ask for.
 */
#ifndef BCL_BENCH_BENCH_FLAGS_HPP
#define BCL_BENCH_BENCH_FLAGS_HPP

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "platform/platform_spec.hpp"

namespace bcl {
namespace bench {

class Flags
{
  public:
    explicit Flags(std::string program) : program_(std::move(program)) {}

    /** String flag. */
    Flags &
    add(const char *name, const char *meta, const char *help,
        std::string *out)
    {
        flags_.push_back({name, meta, help, [out](const char *v) {
                              *out = v;
                              return true;
                          }});
        return *this;
    }

    /** Integer flag (the whole value must parse, and be >= @p min). */
    Flags &
    add(const char *name, const char *meta, const char *help, int *out,
        int min = INT_MIN)
    {
        flags_.push_back({name, meta, help, [out, min](const char *v) {
                              char *end = nullptr;
                              errno = 0;
                              long n = std::strtol(v, &end, 10);
                              if (errno != 0 || end == v || *end != '\0' ||
                                  n < min || n > INT_MAX)
                                  return false;
                              *out = static_cast<int>(n);
                              return true;
                          }});
        return *this;
    }

    /** String flag restricted to @p choices (shown as a|b|c). */
    Flags &
    add(const char *name, std::vector<std::string> choices,
        const char *help, std::string *out)
    {
        std::string meta;
        for (const std::string &c : choices)
            meta += (meta.empty() ? "" : "|") + c;
        flags_.push_back({name, meta, help,
                          [choices, out](const char *v) {
                              for (const std::string &c : choices) {
                                  if (c == v) {
                                      *out = v;
                                      return true;
                                  }
                              }
                              return false;
                          }});
        return *this;
    }

    /** Flag with its own parser; @p parse returns false to reject. */
    Flags &
    add(const char *name, const char *meta, const char *help,
        std::function<bool(const char *)> parse)
    {
        flags_.push_back({name, meta, help, std::move(parse)});
        return *this;
    }

    /** Value-less switch: its presence sets @p out. */
    Flags &
    addSwitch(const char *name, const char *help, bool *out)
    {
        flags_.push_back({name, "", help,
                          [out](const char *) {
                              *out = true;
                              return true;
                          },
                          false});
        return *this;
    }

    /** `--platform FILE|PRESET`, resolved into @p out at parse time;
     *  a bad preset or config file prints its diagnostic and the
     *  usage. */
    Flags &
    addPlatform(PlatformSpec *out)
    {
        return add("--platform", "FILE|PRESET",
                   "platform model: a preset or a configs/*.config file",
                   [out](const char *v) {
                       try {
                           *out = resolvePlatform(v);
                           return true;
                       } catch (const FatalError &err) {
                           std::fprintf(stderr, "%s\n", err.what());
                           return false;
                       }
                   });
    }

    /** Apply argv; exits with the usage text on any error. */
    void
    parse(int argc, char **argv) const
    {
        for (int i = 1; i < argc; i++) {
            const Flag *flag = find(argv[i]);
            if (!flag)
                fail(std::string("unknown flag '") + argv[i] + "'");
            if (!flag->takesValue) {
                flag->parse(nullptr);
                continue;
            }
            if (i + 1 >= argc)
                fail(std::string(argv[i]) + " needs a value");
            if (!flag->parse(argv[i + 1])) {
                fail("bad value '" + std::string(argv[i + 1]) +
                     "' for " + argv[i]);
            }
            i++;
        }
    }

    /** Print @p why and the usage text to stderr, exit 2. */
    [[noreturn]] void
    fail(const std::string &why) const
    {
        std::fprintf(stderr, "%s: %s\nusage: %s", program_.c_str(),
                     why.c_str(), program_.c_str());
        auto lhs = [](const Flag &f) {
            return f.meta.empty() ? std::string(f.name)
                                  : std::string(f.name) + " " + f.meta;
        };
        for (const Flag &f : flags_)
            std::fprintf(stderr, " [%s]", lhs(f).c_str());
        std::fprintf(stderr, "\n");
        for (const Flag &f : flags_)
            std::fprintf(stderr, "  %-24s  %s\n", lhs(f).c_str(), f.help);
        std::exit(2);
    }

  private:
    struct Flag
    {
        const char *name;
        std::string meta;
        const char *help;
        std::function<bool(const char *)> parse;
        bool takesValue = true;
    };

    const Flag *
    find(const char *name) const
    {
        for (const Flag &f : flags_) {
            if (std::strcmp(f.name, name) == 0)
                return &f;
        }
        return nullptr;
    }

    std::string program_;
    std::vector<Flag> flags_;
};

} // namespace bench
} // namespace bcl

#endif // BCL_BENCH_BENCH_FLAGS_HPP
