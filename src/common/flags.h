// One command-line parser for the tools (ndpsim, perf_report, sweep_merge).
// Each tool declares a flag once, in a table: its name, the modes it applies
// to, its value kind, where the value goes and its help line. The table
// drives parsing, the --help text and the mode rule:
//
//   Flags flags("[options]", "", {"batch", "--serve"});
//   flags.number("--jobs", Flags::kAll, "N", &jobs, 0, "a number", "threads");
//   flags.toggle("--stats", 1u << 0, &stats, "dump every stat counter");
//   if (const std::optional<int> code = flags.parse(argc, argv)) return *code;
//   if (!flags.check_mode(serve ? 1u << 1 : 1u << 0)) return 2;
//
// Values come as `--f=v` or `--f v`. parse() prints a diagnostic to stderr
// and returns 2 for an unknown flag (with a did-you-mean suggestion), a
// value flag that ends argv ("requires a value"), a value on a switch and a
// rejected value ("--f takes <what>, got '<value>'"). It returns 0 after the
// built-in --help / -h or an action flag, and nothing when the tool runs on.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ndp {

/// Parse all of `text` as a T no less than `floor`. Empty input, a sign on
/// an unsigned T, leading blanks, trailing characters ("1e5", "20k"), a
/// non-finite float and anything out of T's range all fail.
template <typename T>
bool parse_number(
    std::string_view text, T& out,
    std::common_type_t<T> floor = std::numeric_limits<T>::lowest()) {
  if (text.empty()) return false;
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < floor) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  out = v;
  return true;
}

/// Split at commas outside parentheses, dropping empty items: "1,,4" is
/// {"1", "4"} and "ech(ways=4,probes=2),radix" is two mechanism specs.
std::vector<std::string> split_list(std::string_view text);

/// parse_number over every split_list item ("" is the empty list).
bool parse_number_list(std::string_view text, std::vector<unsigned>& out);

class Flags {
 public:
  /// The mode mask of a flag that applies in every mode.
  static constexpr unsigned kAll = ~0u;

  /// --help prints "usage: PROGRAM `synopsis`", the flags by section, then
  /// `epilogue`. Mode i (named modes[i]) is bit 1u << i of a flag's mask.
  Flags(std::string synopsis, std::string epilogue = "",
        std::vector<std::string> modes = {})
      : synopsis_(std::move(synopsis)),
        epilogue_(std::move(epilogue)),
        modes_(std::move(modes)) {}

  /// Flags declared from here on are listed under `title`; returns the
  /// section's id for first_given().
  std::size_t section(std::string title);

  // The value kinds. `value` names the value in --help; `takes` ends the
  // rejection message "NAME takes `takes`, got '...'".
  void toggle(std::string name, unsigned modes, bool* out, std::string help);
  /// A switch that is the whole run: parse() calls `act` and returns 0.
  void action(std::string name, std::function<void()> act, std::string help);
  void text(std::string name, unsigned modes, std::string value,
            std::string* out, std::string help);
  /// A string that `set` checks and stores; false rejects it.
  void text(std::string name, unsigned modes, std::string value,
            std::string takes, std::function<bool(const std::string&)> set,
            std::string help);
  /// A non-empty split_list.
  void list(std::string name, unsigned modes, std::string value,
            std::vector<std::string>* out, std::string help);
  template <typename T>
  void number(std::string name, unsigned modes, std::string value, T* out,
              std::common_type_t<T> floor, std::string takes,
              std::string help) {
    text(std::move(name), modes, std::move(value), std::move(takes),
         [out, floor](const std::string& v) {
           return parse_number(v, *out, floor);
         },
         std::move(help));
  }
  /// A non-empty parse_number_list.
  void numbers(std::string name, unsigned modes, std::string value,
               std::vector<unsigned>* out, std::string takes,
               std::string help);
  /// One of `choices`, matched case-insensitively; *out gets it as listed.
  void choice(std::string name, unsigned modes,
              std::vector<std::string> choices, std::string* out,
              std::string help);
  /// Arguments not starting with "--" go to *out, not to the flag lookup.
  void positional(std::vector<std::string>* out) { positional_ = out; }

  std::optional<int> parse(int argc, char** argv);

  /// Whether the command line gave `name`, whatever the value.
  bool given(std::string_view name) const;
  /// The first flag given from one of `sections`, or "".
  std::string first_given(std::initializer_list<std::size_t> sections) const;
  /// The mode rule: false, after printing the diagnostic, when a given flag
  /// does not apply in `mode` (one mode bit).
  bool check_mode(unsigned mode);

  std::string help() const;
  /// The diagnostic parse() or check_mode() printed last.
  const std::string& error() const { return error_; }

 private:
  struct Flag {
    std::string name;
    unsigned modes;
    std::string value;  ///< "" marks a switch
    std::string takes;
    std::function<bool(const std::string&)> set;
    std::string help;
    bool exits = false;  ///< an action flag
    std::size_t section = 0;
  };

  void add(Flag flag);
  int fail(std::string message);
  std::string mode_names(unsigned mask) const;

  std::string synopsis_, epilogue_, program_;
  std::vector<std::string> modes_;
  std::vector<std::string> sections_{""};
  std::vector<Flag> flags_;
  std::vector<std::size_t> given_;  ///< flags_ indices, in argv order
  std::vector<std::string>* positional_ = nullptr;
  std::string error_;
};

}  // namespace ndp
