#include "sim/run_config.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.h"
#include "common/strings.h"
#include "core/mechanism_registry.h"
#include "workloads/workload_registry.h"

namespace ndp {
namespace {

[[noreturn]] void config_error(const std::string& msg) {
  throw std::invalid_argument("run config: " + msg);
}

/// Accept either a single value or an array under two alternative keys
/// (e.g. "mechanism"/"mechanisms"); both present is an error.
const JsonValue* axis_value(const JsonValue& root, const char* singular,
                            const char* plural) {
  const JsonValue* s = root.find(singular);
  const JsonValue* p = root.find(plural);
  if (s && p)
    config_error(std::string("give either \"") + singular + "\" or \"" +
                 plural + "\", not both");
  return s ? s : p;
}

std::vector<std::string> string_list(const JsonValue& v, const char* key) {
  std::vector<std::string> out;
  try {
    if (v.is_string()) {
      out.push_back(v.as_string());
    } else {
      for (const JsonValue& item : v.array()) out.push_back(item.as_string());
    }
  } catch (const JsonError&) {
    config_error(std::string("\"") + key +
                 "\" must be a string or an array of strings");
  }
  if (out.empty())
    config_error(std::string("\"") + key + "\" must name at least one value");
  return out;
}

/// Text form of a JSON scalar used as a parameter value in the structured
/// mechanism form; funnelled through MechanismRegistry::resolve() so type
/// and range checking live in one place.
std::string param_value_text(const JsonValue& v, const std::string& where) {
  if (v.is_string()) {
    // The text is spliced into a `name(key=value,...)` spec string below;
    // spec metacharacters would smuggle in extra parameters instead of
    // failing validation for this one value.
    const std::string& s = v.as_string();
    if (s.find_first_of(",=()") != std::string::npos)
      config_error("\"" + where + "\" value '" + s +
                   "' must not contain ',', '=', '(' or ')'");
    return s;
  }
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  if (v.is_number()) {
    try {
      return std::to_string(v.as_u64());
    } catch (const JsonError&) {
      // Fractional/negative: the round-trip formatter keeps full precision
      // so the schema's double parser judges the exact configured value.
      return ParamValue::of_double(v.as_double()).text();
    }
  }
  config_error("\"" + where + "\" values must be numbers, booleans or strings");
}

/// Expand one structured mechanism entry {"name":..., "params": {k: v|[v]}}
/// into canonical spec strings — array-valued parameters cross-product in
/// member order.
void expand_structured_mechanism(const JsonValue& obj,
                                 std::vector<std::string>& out) {
  const JsonValue* name = obj.find("name");
  if (!name || !name->is_string())
    config_error("structured \"mechanisms\" entries need a string \"name\"");
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    if (key != "name" && key != "params")
      config_error("unknown key \"mechanisms[]." + key + "\"");
  }

  // Cross-product of the parameter axes, preserving member order.
  std::vector<std::string> combos{""};
  if (const JsonValue* params = obj.find("params")) {
    if (!params->is_object())
      config_error("\"mechanisms[].params\" must be an object");
    for (const auto& [key, value] : params->members()) {
      // Keys are spliced into the rebuilt spec string exactly like values;
      // metacharacters would smuggle extra parameters past validation.
      if (key.find_first_of(",=()") != std::string::npos)
        config_error("\"mechanisms[].params\" key '" + key +
                     "' must not contain ',', '=', '(' or ')'");
      const std::string where = "mechanisms[].params." + key;
      std::vector<std::string> texts;
      if (value.is_array()) {
        for (const JsonValue& item : value.array())
          texts.push_back(param_value_text(item, where));
        if (texts.empty())
          config_error("\"" + where + "\" must list at least one value");
      } else {
        texts.push_back(param_value_text(value, where));
      }
      std::vector<std::string> next;
      next.reserve(combos.size() * texts.size());
      for (const std::string& prefix : combos)
        for (const std::string& text : texts)
          next.push_back(prefix.empty() ? key + "=" + text
                                        : prefix + "," + key + "=" + text);
      combos = std::move(next);
    }
  }

  auto& registry = MechanismRegistry::instance();
  for (const std::string& combo : combos) {
    const std::string spec = combo.empty()
                                 ? name->as_string()
                                 : name->as_string() + "(" + combo + ")";
    out.push_back(registry.resolve(spec).canonical);
  }
}

/// The "mechanism"/"mechanisms" axis: a spec string, a structured object,
/// or an array mixing both. Resolves everything to canonical spellings.
std::vector<std::string> mechanism_list(const JsonValue& v) {
  std::vector<std::string> out;
  auto add_one = [&out](const JsonValue& item) {
    if (item.is_string())
      out.push_back(
          MechanismRegistry::instance().resolve(item.as_string()).canonical);
    else if (item.is_object())
      expand_structured_mechanism(item, out);
    else
      config_error(
          "\"mechanisms\" entries must be spec strings or "
          "{\"name\",\"params\"} objects");
  };
  if (v.is_array()) {
    for (const JsonValue& item : v.array()) add_one(item);
  } else {
    add_one(v);
  }
  if (out.empty())
    config_error("\"mechanisms\" must name at least one mechanism");
  return out;
}

std::uint64_t u64_field(const JsonValue& v, const char* key) {
  try {
    return v.as_u64();
  } catch (const JsonError&) {
    config_error(std::string("\"") + key +
                 "\" must be a non-negative integer");
  }
}

std::string string_field(const JsonValue& v, const std::string& key) {
  try {
    return v.as_string();
  } catch (const JsonError&) {
    config_error("\"" + key + "\" must be a string");
  }
}

Overrides parse_overrides(const JsonValue& v) {
  Overrides o;
  for (const auto& [key, value] : v.members()) {
    if (key == "bypass") {
      try {
        o.bypass = value.as_bool();
      } catch (const JsonError&) {
        config_error("\"overrides.bypass\" must be true or false");
      }
    } else if (key == "pwc_levels") {
      // null and [] both mean "strip the PWCs".
      std::vector<unsigned> levels;
      if (!value.is_null()) {
        try {
          for (const JsonValue& l : value.array())
            levels.push_back(static_cast<unsigned>(l.as_u64()));
        } catch (const JsonError&) {
          config_error(
              "\"overrides.pwc_levels\" must be null or an array of levels");
        }
      }
      o.pwc_levels = std::move(levels);
    } else if (key == "dram") {
      std::string name;
      try {
        name = value.as_string();
      } catch (const JsonError&) {
        config_error("\"overrides.dram\" must be a string");
      }
      if (iequals(name, "ddr4_2400") || iequals(name, "ddr4"))
        o.dram = DramTiming::ddr4_2400();
      else if (iequals(name, "hbm2") || iequals(name, "hbm"))
        o.dram = DramTiming::hbm2();
      else
        config_error("unknown \"overrides.dram\" '" + name +
                     "'; expected 'ddr4_2400' or 'hbm2'");
    } else {
      config_error("unknown key \"overrides." + key + "\"");
    }
  }
  return o;
}

/// Apply every top-level member except the mechanism/workload/system axes
/// (those are resolved afterwards, via axis_value, order-independently).
void apply_members(const JsonValue& root, RunConfig& cfg) {
  for (const auto& [key, value] : root.members()) {
    if (key == "name") {
      cfg.name = string_field(value, key);
    } else if (key == "description") {
      cfg.description = string_field(value, key);
    } else if (key == "system" || key == "systems") {
      // Handled below via axis_value (order-independent).
    } else if (key == "mechanism" || key == "mechanisms") {
    } else if (key == "workload" || key == "workloads") {
    } else if (key == "cores") {
      cfg.cores.clear();
      try {
        if (value.is_number()) {
          cfg.cores.push_back(static_cast<unsigned>(value.as_u64()));
        } else {
          for (const JsonValue& c : value.array())
            cfg.cores.push_back(static_cast<unsigned>(c.as_u64()));
        }
      } catch (const JsonError&) {
        config_error("\"cores\" must be a core count or an array of counts");
      }
      if (cfg.cores.empty()) config_error("\"cores\" must not be empty");
      for (unsigned c : cfg.cores)
        if (c == 0) config_error("\"cores\" values must be >= 1");
    } else if (key == "instructions") {
      cfg.instructions = u64_field(value, "instructions");
    } else if (key == "warmup") {
      cfg.warmup = u64_field(value, "warmup");
    } else if (key == "scale") {
      try {
        cfg.scale = value.as_double();
      } catch (const JsonError&) {
        config_error("\"scale\" must be a number");
      }
      if (cfg.scale < 0 || cfg.scale > 1)
        config_error("\"scale\" must be in (0, 1] (0 = workload default)");
    } else if (key == "seed") {
      cfg.seed = u64_field(value, "seed");
    } else if (key == "overrides") {
      if (!value.is_object()) config_error("\"overrides\" must be an object");
      cfg.overrides = parse_overrides(value);
    } else if (key == "image_store") {
      cfg.image_store = string_field(value, key);
    } else if (key == "baseline") {
      cfg.baseline = string_field(value, key);
    } else if (key == "output") {
      if (!value.is_object()) config_error("\"output\" must be an object");
      for (const auto& [okey, ovalue] : value.members()) {
        if (okey == "json")
          cfg.json_output = string_field(ovalue, "output.json");
        else if (okey == "csv")
          cfg.csv_output = string_field(ovalue, "output.csv");
        else
          config_error("unknown key \"output." + okey + "\"");
      }
    } else {
      config_error("unknown key \"" + key + "\"");
    }
  }
}

}  // namespace

RunConfig RunConfig::from_json(std::string_view text) {
  JsonValue root = JsonValue::make_null();
  try {
    root = JsonValue::parse(text);
  } catch (const JsonError& e) {
    config_error(std::string("JSON parse error at ") + e.what());
  }
  if (!root.is_object()) config_error("top level must be a JSON object");

  RunConfig cfg;
  try {
    apply_members(root, cfg);
  } catch (const JsonError& e) {
    // A type mismatch not caught by a field-specific handler above.
    config_error(e.what());
  }

  if (const JsonValue* v = axis_value(root, "system", "systems")) {
    cfg.systems.clear();
    for (const std::string& name : string_list(*v, "systems")) {
      const auto k = system_kind_from_string(name);
      if (!k)
        config_error("unknown system '" + name + "'; expected 'ndp' or 'cpu'");
      cfg.systems.push_back(*k);
    }
  }

  // Resolve names to canonical registry spellings up front, so expansion and
  // aggregation never see aliases and errors surface at parse time.
  // Mechanism entries are full parameter specs (string or structured form);
  // resolution validates them against each mechanism's schema.
  try {
    if (const JsonValue* v = axis_value(root, "mechanism", "mechanisms"))
      cfg.mechanisms = mechanism_list(*v);
    if (const JsonValue* v = axis_value(root, "workload", "workloads")) {
      const std::vector<std::string> names = string_list(*v, "workloads");
      if (names.size() == 1 && iequals(names[0], "all")) {
        cfg.workloads = WorkloadRegistry::instance().builtin_names();
      } else {
        cfg.workloads.clear();
        for (const std::string& name : names)
          cfg.workloads.push_back(WorkloadRegistry::instance().at(name).name);
      }
    }
    if (!cfg.baseline.empty())
      cfg.baseline =
          MechanismRegistry::instance().resolve(cfg.baseline).canonical;
  } catch (const std::out_of_range& e) {
    config_error(e.what());
  } catch (const std::invalid_argument& e) {
    // Parameter-spec violations; re-wrap unless already prefixed (a nested
    // config_error passes through untouched).
    const std::string what = e.what();
    if (what.rfind("run config: ", 0) == 0) throw;
    config_error(what);
  }

  if (!cfg.baseline.empty()) {
    bool found = false;
    for (const std::string& m : cfg.mechanisms)
      if (m == cfg.baseline) found = true;
    if (!found)
      config_error("\"baseline\" '" + cfg.baseline +
                   "' is not one of the swept mechanisms");
  }
  return cfg;
}

RunConfig RunConfig::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot read config '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return from_json(text.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

std::string RunConfig::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("name").value(name);
  if (!description.empty()) w.key("description").value(description);
  w.key("systems").begin_array();
  for (SystemKind k : systems)
    w.value(k == SystemKind::kNdp ? "ndp" : "cpu");
  w.end_array();
  w.key("mechanisms").begin_array();
  for (const std::string& m : mechanisms) w.value(m);
  w.end_array();
  w.key("workloads").begin_array();
  for (const std::string& wl : workloads) w.value(wl);
  w.end_array();
  w.key("cores").begin_array();
  for (unsigned c : cores) w.value(c);
  w.end_array();
  if (instructions) w.key("instructions").value(instructions);
  if (warmup) w.key("warmup").value(warmup);
  if (scale > 0) w.key("scale").value(scale);
  w.key("seed").value(seed);
  if (!image_store.empty()) w.key("image_store").value(image_store);
  if (overrides.any()) {
    w.key("overrides").begin_object();
    if (overrides.bypass) w.key("bypass").value(*overrides.bypass);
    if (overrides.pwc_levels) {
      w.key("pwc_levels").begin_array();
      for (unsigned l : *overrides.pwc_levels) w.value(l);
      w.end_array();
    }
    if (overrides.dram)
      w.key("dram").value(iequals(overrides.dram->name, "HBM2") ? "hbm2"
                                                                : "ddr4_2400");
    w.end_object();
  }
  if (!baseline.empty()) w.key("baseline").value(baseline);
  if (!json_output.empty() || !csv_output.empty()) {
    w.key("output").begin_object();
    if (!json_output.empty()) w.key("json").value(json_output);
    if (!csv_output.empty()) w.key("csv").value(csv_output);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

std::vector<RunSpec> RunConfig::expand() const {
  std::vector<RunSpec> out;
  for (SystemKind sys : systems) {
    RunSpec base = RunSpecBuilder()
                       .system(sys)
                       .instructions(instructions)
                       .warmup(warmup)
                       .scale(scale)
                       .seed(seed)
                       .overrides(overrides)
                       .build();
    std::vector<RunSpec> grid = sweep(base, mechanisms, workloads, cores);
    out.insert(out.end(), grid.begin(), grid.end());
  }
  return out;
}

}  // namespace ndp
