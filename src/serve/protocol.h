// The serve wire protocol: JSON-lines requests in, framed envelopes out.
//
// One request per line:
//
//   {"op":"run","id":"r1","config":{...RunConfig...},"jobs":2}
//   {"op":"run","id":"r1","config":{...},"shard_index":1,"shard_count":3}
//   {"op":"run","id":"r1","config":{...},"cache":false}
//   {"op":"status","id":"s1"}
//   {"op":"stats","id":"x1"}
//   {"op":"metrics","id":"m1"}
//   {"op":"cancel","id":"c1","target":"r1"}
//   {"op":"shutdown","id":"z1"}
//
// The "config" value is a full inline RunConfig document (the same schema
// as experiments/*.json — see sim/run_config.h), so a client submits an
// experiment grid exactly as it would check one in. Optional run members:
// "shard_index"/"shard_count" execute only that round-robin slice of the
// grid (the wire form of `--shard i/N`; the fleet coordinator drives
// workers with these, and the done envelope then embeds a shard document
// that merge_sharded_envelopes recombines); "cache":false asks a fleet
// coordinator to bypass its result cache (workers accept and ignore it, so
// one request line drives either tier). Responses are one envelope per
// line, every one tagged with the request's "type" and "id":
//
//   {"type":"cell","id":"r1","index":3,"total":8,"result":{...}}   (streamed)
//   {"type":"done","id":"r1","cells":8,"envelope":{...}}           (final)
//   {"type":"error","id":"r1","error":"..."}
//
// The "envelope" value of "done" is byte-identical to what a batch
// `ndpsim --config` run of the same grid writes — a client that splices it
// out (common/json.h raw_member) gets the exact single-process artifact.
//
// Both daemons — the `--serve` worker and the `--fleet` coordinator — speak
// this protocol through one scaffold (serve/daemon.h). A connection may
// hold several run requests in flight at once: the daemon executes each
// run on its own thread and keeps reading, so envelope streams of
// concurrent runs interleave on the wire (every frame carries its
// request's "id" — demultiplex by it) and quick ops like `status` answer
// while a long run streams, even one on the same connection. This is what
// lets the fleet coordinator hold exactly one connection per worker.
//
// The `status` reply carries "uptime_ms", "in_flight_requests", and
// "protocol_version" (kProtocolVersion below) so a coordinator — or a
// human with netcat — can health-check a daemon meaningfully; a
// coordinator's reply adds "role", "cache" and "workers". `stats` and
// `cancel` are worker-only: a coordinator answers them with an error
// envelope.
//
// Request parsing is strict like the config parser: unknown ops, unknown
// keys, and type mismatches throw std::invalid_argument with a message
// that names the problem; the daemon turns that into an error envelope
// instead of dying (tests/daemon_lifecycle_test.cpp pins the survival).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/run_config.h"
#include "sim/session.h"
#include "sim/sweep_runner.h"

namespace ndp::serve {

/// Version of the wire protocol this build speaks, reported in `status`
/// replies. Bumped when ops or envelope fields change shape (additive
/// fields — like the ones version 2 added — don't break version-1 clients,
/// which skip unknown frame members by construction).
constexpr unsigned kProtocolVersion = 2;

struct Request {
  enum class Op { kRun, kStatus, kStats, kMetrics, kCancel, kShutdown };

  Op op = Op::kStatus;
  std::string id;      ///< echoed on every response envelope ("" allowed)
  RunConfig config;    ///< kRun: the parsed, validated experiment
  unsigned jobs = 0;   ///< kRun: worker threads (0 = server default)
  /// kRun: execute only shard `shard_index` of the grid split
  /// `shard_count` ways (SweepOptions round-robin semantics). count 1 =
  /// the whole grid.
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  /// kRun: false asks a fleet coordinator to bypass its result cache for
  /// this request (no lookup, no store). Workers ignore it.
  bool use_cache = true;
  std::string target;  ///< kCancel: id of the run to cancel
};

/// Parse + validate one request line. Throws std::invalid_argument (or
/// JsonError for malformed JSON, with line:col) naming the problem —
/// unknown op, missing/mistyped members, unknown keys, and every
/// RunConfig-level validation error (unknown mechanism names etc.).
Request parse_request(std::string_view line);

/// Best-effort id extraction for error envelopes: when a request fails to
/// parse, the reply should still echo "id" if one can be recovered ("" if
/// not — never throws).
std::string request_id_of(std::string_view line);

// --- response envelopes (each returns one unframed JSON line) ---------------

std::string error_envelope(std::string_view id, std::string_view message);

/// One completed cell, streamed in completion order. `index` is the cell's
/// position in the run's result set; `total` the run's cell count.
std::string cell_envelope(std::string_view id, std::size_t index,
                          std::size_t total, const SweepCell& cell);

/// Terminal success envelope: embeds to_json(results) verbatim under
/// "envelope" — byte-identical to the batch document.
std::string done_envelope(std::string_view id, const SweepResults& results);

/// done_envelope over an already-serialized result document (raw splice,
/// never re-encoded): the fleet coordinator forwards merged — or cached —
/// envelopes through this, so the bytes a worker or the merge produced are
/// the bytes the client receives.
std::string done_envelope_raw(std::string_view id, std::size_t cells,
                              std::string_view envelope_json);

/// Raw per-cell frame for relays that hold the cell's result document as
/// text (the coordinator re-frames worker cell streams with the global
/// index through this).
std::string cell_envelope_raw(std::string_view id, std::size_t index,
                              std::size_t total, std::string_view result_json);

/// Terminal envelope of a cancelled run (`completed` of `total` cells ran;
/// their cell envelopes were already streamed).
std::string cancelled_envelope(std::string_view id, std::size_t completed,
                               std::size_t total);

std::string stats_envelope(std::string_view id, const SessionStats& stats);

/// Reply to the `metrics` op: the process-wide Prometheus text exposition
/// (obs/metrics.h) carried as one JSON string member ("text"). A scraper
/// sidecar (or `ndpsim --client --op=metrics`) unescapes "text" and has
/// exactly what a /metrics HTTP endpoint would serve.
std::string metrics_envelope(std::string_view id, std::string_view text);

/// Generic success acknowledgement (e.g. a cancel that found its target).
std::string ok_envelope(std::string_view id);

/// Daemon-level counters for the status reply.
struct ServerStatus {
  unsigned connections = 0;          ///< currently open connections
  unsigned active_runs = 0;          ///< run requests in flight
  /// Requests of any op currently being processed (runs included) — the
  /// in-flight load figure a coordinator health-checks against.
  unsigned in_flight_requests = 0;
  std::uint64_t requests_accepted = 0;
  std::uint64_t runs_completed = 0;
  std::uint64_t cells_completed = 0;
  std::uint64_t uptime_ms = 0;  ///< wall ms since the daemon was constructed
  bool draining = false;
};

/// `extra_members` (raw JSON, each member led by a comma) follow the
/// shared counters — the coordinator's role, cache and workers.
std::string status_envelope(std::string_view id, const ServerStatus& status,
                            std::string_view extra_members = {});

/// Acknowledges a shutdown after the drain completed; the last envelope a
/// connection receives.
std::string bye_envelope(std::string_view id);

}  // namespace ndp::serve
