#include "common/flags.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/strings.h"

namespace ndp {
namespace {

/// One --help entry: the label, then the help text word-wrapped into a
/// column of its own (starting on the next line when the label is wide).
std::string help_entry(const std::string& label, const std::string& text) {
  constexpr std::size_t kColumn = 27, kWidth = 79;
  std::string out = "  " + label;
  std::size_t line = 0;  // where the current line starts
  if (out.size() + 1 >= kColumn) line = (out += '\n').size();
  out.resize(line + kColumn, ' ');
  std::istringstream words(text);
  for (std::string word; words >> word;) {
    if (out.size() - line + 1 + word.size() > kWidth) {
      line = (out += '\n').size();
      out.append(kColumn, ' ');
    } else if (out.size() - line > kColumn) {
      out += ' ';
    }
    out += word;
  }
  return out + '\n';
}

}  // namespace

std::vector<std::string> split_list(std::string_view text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && text[i] == '(') ++depth;
    if (i < text.size() && text[i] == ')' && depth > 0) --depth;
    if (i == text.size() || (text[i] == ',' && depth == 0)) {
      if (i > start) out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool parse_number_list(std::string_view text, std::vector<unsigned>& out) {
  std::vector<unsigned> items;
  for (const std::string& item : split_list(text)) {
    unsigned n = 0;
    if (!parse_number(item, n)) return false;
    items.push_back(n);
  }
  out = std::move(items);
  return true;
}

std::size_t Flags::section(std::string title) {
  sections_.push_back(std::move(title));
  return sections_.size() - 1;
}

void Flags::add(Flag flag) {
  flag.section = sections_.size() - 1;
  flags_.push_back(std::move(flag));
}

void Flags::toggle(std::string name, unsigned modes, bool* out,
                   std::string help) {
  add({std::move(name), modes, "", "",
       [out](const std::string&) {
         *out = true;
         return true;
       },
       std::move(help)});
}

void Flags::action(std::string name, std::function<void()> act,
                   std::string help) {
  add({std::move(name), kAll, "", "",
       [act = std::move(act)](const std::string&) {
         act();
         return true;
       },
       std::move(help), true});
}

void Flags::text(std::string name, unsigned modes, std::string value,
                 std::string* out, std::string help) {
  text(std::move(name), modes, value, value,
       [out](const std::string& v) {
         *out = v;
         return true;
       },
       std::move(help));
}

void Flags::text(std::string name, unsigned modes, std::string value,
                 std::string takes,
                 std::function<bool(const std::string&)> set,
                 std::string help) {
  add({std::move(name), modes, std::move(value), std::move(takes),
       std::move(set), std::move(help)});
}

void Flags::list(std::string name, unsigned modes, std::string value,
                 std::vector<std::string>* out, std::string help) {
  text(std::move(name), modes, value, value,
       [out](const std::string& v) {
         *out = split_list(v);
         return !out->empty();
       },
       std::move(help));
}

void Flags::numbers(std::string name, unsigned modes, std::string value,
                    std::vector<unsigned>* out, std::string takes,
                    std::string help) {
  text(std::move(name), modes, std::move(value), std::move(takes),
       [out](const std::string& v) {
         return parse_number_list(v, *out) && !out->empty();
       },
       std::move(help));
}

void Flags::choice(std::string name, unsigned modes,
                   std::vector<std::string> choices, std::string* out,
                   std::string help) {
  std::string joined;
  for (const std::string& c : choices)
    joined += (joined.empty() ? "" : "|") + c;
  text(std::move(name), modes, joined, joined,
       [choices = std::move(choices), out](const std::string& v) {
         for (const std::string& c : choices) {
           if (!iequals(v, c)) continue;
           *out = c;
           return true;
         }
         return false;
       },
       std::move(help));
}

std::optional<int> Flags::parse(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return 0;
    }
    if (positional_ && arg.compare(0, 2, "--") != 0) {
      positional_->push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto flag =
        std::find_if(flags_.begin(), flags_.end(),
                     [&](const Flag& f) { return f.name == name; });
    if (flag == flags_.end()) {
      std::vector<std::string> names{"--help"};
      for (const Flag& f : flags_) names.push_back(f.name);
      const std::string suggestion = closest_match(name, names);
      if (suggestion.empty())
        return fail("unknown option '" + arg + "'\n\n" + help());
      return fail("unknown option '" + arg + "'; did you mean '" + suggestion +
                  "'?");
    }
    std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (flag->value.empty() && eq != std::string::npos)
      return fail(name + " takes no value, got '" + value + "'");
    if (!flag->value.empty() && eq == std::string::npos) {
      if (i + 1 == argc) return fail("option '" + name + "' requires a value");
      value = argv[++i];
    }
    if (!flag->set(value))
      return fail(name + " takes " + flag->takes + ", got '" + value + "'");
    if (flag->exits) return 0;
    given_.push_back(static_cast<std::size_t>(flag - flags_.begin()));
  }
  return std::nullopt;
}

bool Flags::given(std::string_view name) const {
  return std::any_of(given_.begin(), given_.end(),
                     [&](std::size_t i) { return flags_[i].name == name; });
}

std::string Flags::first_given(
    std::initializer_list<std::size_t> sections) const {
  for (std::size_t i : given_)
    for (std::size_t s : sections)
      if (flags_[i].section == s) return flags_[i].name;
  return "";
}

bool Flags::check_mode(unsigned mode) {
  for (std::size_t i : given_) {
    const Flag& f = flags_[i];
    if (f.modes & mode) continue;
    fail(f.name + " does not apply in " + mode_names(mode) +
         " mode (its modes: " + mode_names(f.modes) + ")");
    return false;
  }
  return true;
}

std::string Flags::help() const {
  std::string out = "usage: " + program_ + " " + synopsis_ + "\n";
  const unsigned all_modes = (1u << modes_.size()) - 1;
  for (std::size_t s = 0; s < sections_.size(); ++s) {
    if (!sections_[s].empty()) out += "\n" + sections_[s] + ":\n";
    for (const Flag& f : flags_) {
      if (f.section != s) continue;
      std::string text = f.help;
      if ((f.modes & all_modes) != all_modes)
        text += " [" + mode_names(f.modes) + "]";
      out += help_entry(f.value.empty() ? f.name : f.name + "=" + f.value,
                        text);
    }
  }
  out += help_entry("-h, --help", "this text");
  return epilogue_.empty() ? out : out + "\n" + epilogue_;
}

int Flags::fail(std::string message) {
  error_ = std::move(message);
  std::fprintf(stderr, "%s\n", error_.c_str());
  return 2;
}

std::string Flags::mode_names(unsigned mask) const {
  std::string out;
  for (std::size_t i = 0; i < modes_.size(); ++i)
    if (mask & (1u << i)) out += (out.empty() ? "" : ", ") + modes_[i];
  return out;
}

}  // namespace ndp
