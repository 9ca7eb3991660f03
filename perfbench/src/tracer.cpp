#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <fstream>

#include "common/json.h"

namespace perfbench {

namespace {

thread_local ScopedSpan* tl_current = nullptr;

unsigned this_tid() {
  static std::atomic<unsigned> next{1};
  thread_local const unsigned tid = next.fetch_add(1);
  return tid;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::uint64_t Tracer::reserve_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint64_t Tracer::add(std::string name, std::uint64_t trace,
                          std::uint64_t parent, std::int64_t start_ns,
                          std::int64_t end_ns) {
  Span s;
  s.parent = parent;
  s.trace = trace;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.tid = this_tid();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = next_id_++;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::uint64_t, std::int64_t> Tracer::self_ns() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : all)
    if (s.parent) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::map<std::uint64_t, std::int64_t> out;
  for (const Span& s : all) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    out[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  const std::map<std::uint64_t, std::int64_t> self = self_ns();
  std::map<std::string, double> out;
  for (const Span& s : spans())
    out[s.name] += static_cast<double>(self.at(s.id)) / 1e6;
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::map<std::uint64_t, std::int64_t> self = self_ns();
  std::int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) t0 = std::min(t0, s.start_ns);
  ndp::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const Span& s : all) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value("perfbench");
    w.key("ph").value("X");
    w.key("ts").value(static_cast<double>(s.start_ns - t0) / 1e3);
    w.key("dur").value(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.key("pid").value(1u);
    w.key("tid").value(s.tid);
    w.key("args").begin_object();
    w.key("span").value(s.id);
    w.key("parent").value(s.parent);
    w.key("trace").value(s.trace);
    w.key("self_us").value(static_cast<double>(self.at(s.id)) / 1e3);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  if (!out) return false;
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name, std::uint64_t trace)
    : tracer_(tracer),
      name_(std::move(name)),
      id_(tracer.reserve_id()),
      parent_(tl_current ? tl_current->id_ : 0),
      trace_(trace ? trace : (tl_current ? tl_current->trace_ : 0)),
      prev_(tl_current),
      start_(now_ns()) {
  tl_current = this;
}

ScopedSpan::~ScopedSpan() {
  const std::int64_t end = now_ns();
  tl_current = prev_;
  Span s;
  s.id = id_;
  s.parent = parent_;
  s.trace = trace_;
  s.name = std::move(name_);
  s.start_ns = start_;
  s.end_ns = end;
  s.tid = this_tid();
  std::lock_guard<std::mutex> lock(tracer_.mu_);
  tracer_.spans_.push_back(std::move(s));
}

}  // namespace perfbench
