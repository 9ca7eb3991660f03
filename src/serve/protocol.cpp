#include "serve/protocol.h"

#include <stdexcept>

#include "common/json.h"
#include "sim/experiment.h"

namespace ndp::serve {

namespace {

[[noreturn]] void request_error(const std::string& msg) {
  throw std::invalid_argument("request: " + msg);
}

Request::Op op_of(const std::string& name) {
  if (name == "run") return Request::Op::kRun;
  if (name == "status") return Request::Op::kStatus;
  if (name == "stats") return Request::Op::kStats;
  if (name == "metrics") return Request::Op::kMetrics;
  if (name == "cancel") return Request::Op::kCancel;
  if (name == "shutdown") return Request::Op::kShutdown;
  request_error("unknown op \"" + name +
                "\" (known: run, status, stats, metrics, cancel, shutdown)");
}

bool key_allowed(Request::Op op, const std::string& key) {
  if (key == "op" || key == "id") return true;
  switch (op) {
    case Request::Op::kRun:
      return key == "config" || key == "jobs" || key == "shard_index" ||
             key == "shard_count" || key == "cache";
    case Request::Op::kCancel:
      return key == "target";
    default:
      return false;
  }
}

/// `"id":<escaped>` goes first on every envelope so transcripts scan
/// uniformly; JsonWriter handles the escaping.
std::string envelope_head(std::string_view type, std::string_view id) {
  std::string out = "{\"type\":\"";
  out += type;
  out += "\",\"id\":\"";
  out += JsonWriter::escape(id);
  out += '"';
  return out;
}

}  // namespace

Request parse_request(std::string_view line) {
  const JsonValue doc = JsonValue::parse(line);
  if (!doc.is_object()) request_error("must be a JSON object");
  const JsonValue* op_v = doc.find("op");
  if (!op_v) request_error("missing \"op\"");
  if (!op_v->is_string()) request_error("\"op\" must be a string");

  Request req;
  req.op = op_of(op_v->as_string());
  for (const auto& [key, value] : doc.members()) {
    if (!key_allowed(req.op, key))
      request_error("unknown key \"" + key + "\" for op \"" +
                    op_v->as_string() + '"');
    (void)value;
  }
  if (const JsonValue* id = doc.find("id")) {
    if (!id->is_string()) request_error("\"id\" must be a string");
    req.id = id->as_string();
  }

  switch (req.op) {
    case Request::Op::kRun: {
      const JsonValue* cfg = doc.find("config");
      if (!cfg) request_error("run requires a \"config\" object");
      if (!cfg->is_object()) request_error("\"config\" must be an object");
      // Re-dump the subtree and reuse the RunConfig parser verbatim: one
      // schema, one set of validation messages. Configs hold small integers
      // only, so the double round-trip is lossless.
      req.config = RunConfig::from_json(cfg->dump());
      if (const JsonValue* jobs = doc.find("jobs")) {
        const std::uint64_t n = jobs->as_u64();
        if (n > 1024) request_error("\"jobs\" out of range");
        req.jobs = static_cast<unsigned>(n);
      }
      if (const JsonValue* count = doc.find("shard_count")) {
        const std::uint64_t n = count->as_u64();
        if (n == 0 || n > 4096) request_error("\"shard_count\" out of range");
        req.shard_count = static_cast<unsigned>(n);
      }
      if (const JsonValue* index = doc.find("shard_index")) {
        const std::uint64_t i = index->as_u64();
        if (i >= req.shard_count)
          request_error("\"shard_index\" must be < \"shard_count\"");
        req.shard_index = static_cast<unsigned>(i);
      }
      if (const JsonValue* cache = doc.find("cache")) {
        if (!cache->is_bool()) request_error("\"cache\" must be a bool");
        req.use_cache = cache->as_bool();
      }
      break;
    }
    case Request::Op::kCancel: {
      const JsonValue* target = doc.find("target");
      if (!target) request_error("cancel requires a \"target\" run id");
      if (!target->is_string()) request_error("\"target\" must be a string");
      req.target = target->as_string();
      break;
    }
    default:
      break;
  }
  return req;
}

std::string request_id_of(std::string_view line) {
  try {
    const JsonValue doc = JsonValue::parse(line);
    if (const JsonValue* id = doc.find("id"))
      if (id->is_string()) return id->as_string();
  } catch (...) {
    // Malformed request — the error envelope goes out with an empty id.
  }
  return "";
}

std::string error_envelope(std::string_view id, std::string_view message) {
  std::string out = envelope_head("error", id);
  out += ",\"error\":\"";
  out += JsonWriter::escape(message);
  out += "\"}";
  return out;
}

std::string cell_envelope(std::string_view id, std::size_t index,
                          std::size_t total, const SweepCell& cell) {
  std::string out = envelope_head("cell", id);
  out += ",\"index\":" + std::to_string(index);
  out += ",\"total\":" + std::to_string(total);
  // Raw splice, not JsonWriter: the result document is already JSON and
  // must land byte-identical to its batch serialization.
  out += ",\"result\":" + to_json(cell.result, &cell.spec, false);
  out += '}';
  return out;
}

std::string done_envelope(std::string_view id, const SweepResults& results) {
  return done_envelope_raw(id, results.cells.size(), to_json(results));
}

std::string done_envelope_raw(std::string_view id, std::size_t cells,
                              std::string_view envelope_json) {
  std::string out = envelope_head("done", id);
  out += ",\"cells\":" + std::to_string(cells);
  out += ",\"envelope\":";
  out += envelope_json;
  out += '}';
  return out;
}

std::string cell_envelope_raw(std::string_view id, std::size_t index,
                              std::size_t total, std::string_view result_json) {
  std::string out = envelope_head("cell", id);
  out += ",\"index\":" + std::to_string(index);
  out += ",\"total\":" + std::to_string(total);
  out += ",\"result\":";
  out += result_json;
  out += '}';
  return out;
}

std::string cancelled_envelope(std::string_view id, std::size_t completed,
                               std::size_t total) {
  std::string out = envelope_head("cancelled", id);
  out += ",\"completed\":" + std::to_string(completed);
  out += ",\"total\":" + std::to_string(total);
  out += '}';
  return out;
}

std::string stats_envelope(std::string_view id, const SessionStats& stats) {
  std::string out = envelope_head("stats", id);
  out += ",\"session\":";
  JsonWriter w;
  write_session_stats(w, stats);
  out += w.str();
  out += '}';
  return out;
}

std::string metrics_envelope(std::string_view id, std::string_view text) {
  std::string out = envelope_head("metrics", id);
  out += ",\"content_type\":\"text/plain; version=0.0.4\"";
  out += ",\"text\":\"";
  out += JsonWriter::escape(text);
  out += "\"}";
  return out;
}

std::string ok_envelope(std::string_view id) {
  return envelope_head("ok", id) + "}";
}

std::string status_envelope(std::string_view id, const ServerStatus& status,
                            std::string_view extra_members) {
  std::string out = envelope_head("status", id);
  out += ",\"protocol_version\":" + std::to_string(kProtocolVersion);
  out += ",\"uptime_ms\":" + std::to_string(status.uptime_ms);
  out += ",\"connections\":" + std::to_string(status.connections);
  out += ",\"active_runs\":" + std::to_string(status.active_runs);
  out += ",\"in_flight_requests\":" +
         std::to_string(status.in_flight_requests);
  out += ",\"requests_accepted\":" + std::to_string(status.requests_accepted);
  out += ",\"runs_completed\":" + std::to_string(status.runs_completed);
  out += ",\"cells_completed\":" + std::to_string(status.cells_completed);
  out += ",\"draining\":";
  out += status.draining ? "true" : "false";
  out += extra_members;
  out += '}';
  return out;
}

std::string bye_envelope(std::string_view id) {
  return envelope_head("bye", id) + "}";
}

}  // namespace ndp::serve
