#include "reference.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <thread>
#include <utility>

#include "obs/export.h"
#include "opt/graph_solver.h"
#include "serve/json.h"
#include "sta/analysis.h"
#include "sta/session.h"

namespace perfbench {

using mintc::serve::Json;

int ResponseStore::add(std::string_view payload) {
  const size_t h = std::hash<std::string_view>{}(payload);
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<int>& ids = by_hash_[h];
  for (const int id : ids) {
    if (payloads_[static_cast<size_t>(id)] == payload) return id;
  }
  payloads_.emplace_back(payload);
  ids.push_back(static_cast<int>(payloads_.size()) - 1);
  return ids.back();
}

void capture(std::string_view line, long id, ResponseStore& store, Record& rec) {
  const std::string prefix = "{\"id\":" + std::to_string(id) + ",\"ok\":true,\"cached\":";
  std::string_view payload = line;
  rec.ok = false;
  if (line.starts_with(prefix)) {
    std::string_view rest = line.substr(prefix.size());
    for (const bool cached : {true, false}) {
      const std::string_view tag = cached ? "true,\"result\":" : "false,\"result\":";
      if (rest.starts_with(tag)) {
        rec.ok = true;
        rec.cached = cached;
        payload = rest.substr(tag.size());
      }
    }
  }
  rec.payload = store.add(payload);
}

const Request& request_of(const Workload& w, const Record& rec) {
  if (rec.conn < 0) return w.setup[static_cast<size_t>(rec.index)];
  return w.streams[static_cast<size_t>(rec.conn)][static_cast<size_t>(rec.index)];
}

namespace {

namespace sta = mintc::sta;
using mintc::Circuit;
using mintc::ClockSchedule;

bool same(double a, double b) { return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b); }

sta::AnalysisOptions serve_options() {
  sta::AnalysisOptions o;
  o.check_hold = true;  // what TimingService sessions analyze with
  return o;
}

/// The paper's pinned optima for the builtins (ns).
std::optional<double> pinned_optimum(const GenCircuit& gc) {
  if (gc.builtin == "example1") return 110.0;
  if (gc.builtin == "example2") return 70.0;
  if (gc.builtin == "gaas") return 4.4;
  return std::nullopt;
}

bool close_rel(double a, double b, double rel) {
  return std::isfinite(a) && std::abs(a - b) <= rel * std::max(std::abs(b), 1e-12);
}

/// The success payload of a record parsed back into {"result": ..., ...}.
std::optional<Json> parse_payload(const std::string& payload) {
  mintc::Expected<Json> j = mintc::serve::parse_json("{\"result\":" + payload);
  if (!j) return std::nullopt;
  return std::move(j.value());
}

std::string fingerprint_of(const std::string& payload) {
  const std::string tag = "\"fingerprint\":\"";
  const size_t at = payload.rfind(tag);
  if (at == std::string::npos) return "";
  return payload.substr(at + tag.size(), 16);
}

std::string num_problem(const char* what, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s %.17g != reference %.17g", what, got, want);
  return buf;
}

/// A finite-or-absent field: present and bit-equal when `want` is finite,
/// absent otherwise (the protocol omits non-finite values).
std::string check_optional(const Json& obj, const char* key, double want) {
  const Json& v = obj.get(key);
  if (!std::isfinite(want)) {
    return v.is_null() ? "" : std::string(key) + " present for a non-finite reference";
  }
  if (!v.is_number()) return std::string(key) + " missing";
  return same(v.as_number(), want) ? "" : num_problem(key, v.as_number(), want);
}

std::string check_report_fields(const Json& r, const sta::TimingReport& ref) {
  const std::pair<const char*, bool> flags[] = {
      {"feasible", ref.feasible}, {"schedule_ok", ref.schedule_ok}, {"converged", ref.converged},
      {"setup_ok", ref.setup_ok}, {"hold_ok", ref.hold_ok}};
  for (const auto& [key, want] : flags) {
    if (!r.get(key).is_bool() || r.get(key).as_bool() != want) {
      return std::string(key) + " differs from the reference";
    }
  }
  if (!r.get("worst_setup_slack").is_number()) return "worst_setup_slack missing";
  if (!same(r.get("worst_setup_slack").as_number(), ref.worst_setup_slack)) {
    return num_problem("worst_setup_slack", r.get("worst_setup_slack").as_number(),
                       ref.worst_setup_slack);
  }
  return check_optional(r, "worst_hold_slack", ref.worst_hold_slack);
}

/// What one state of a circuit should answer; computed lazily, once.
class StateRef {
 public:
  StateRef(const Circuit& c, const ClockSchedule& s) : c_(c), s_(s) {}

  const sta::TimingReport& analysis() {
    if (!analysis_) analysis_ = sta::check_schedule(c_, s_, serve_options());
    return *analysis_;
  }
  double min_cycle() {
    if (!min_cycle_) {
      mintc::opt::GraphSolveOptions o;
      mintc::Expected<mintc::opt::GraphSolveResult> r = mintc::opt::minimize_cycle_time_graph(c_, o);
      min_cycle_ = r ? r->min_cycle : std::nan("");
    }
    return *min_cycle_;
  }
  /// One cold reference analysis per sweep value, memoized by value.
  const sta::TimingReport& sweep_row(bool skew, double v) {
    std::map<double, sta::TimingReport>& rows = skew ? skew_rows_ : scale_rows_;
    auto it = rows.find(v);
    if (it == rows.end()) {
      if (skew) {
        Circuit copy = c_;
        for (int i = 0; i < copy.num_elements(); ++i) copy.element(i).skew = v;
        it = rows.emplace(v, sta::check_schedule(copy, s_, serve_options())).first;
      } else {
        it = rows.emplace(v, sta::check_schedule(c_, s_.scaled(v), serve_options())).first;
      }
    }
    return it->second;
  }
  const ClockSchedule& schedule() const { return s_; }
  const Circuit& circuit() const { return c_; }

 private:
  const Circuit& c_;
  const ClockSchedule& s_;
  std::optional<sta::TimingReport> analysis_;
  std::optional<double> min_cycle_;
  std::map<double, sta::TimingReport> scale_rows_, skew_rows_;
};

std::string verify_analyze(const Json& r, const Request& req, StateRef& ref) {
  const sta::TimingReport& a = ref.analysis();
  std::string p = check_report_fields(r, a);
  if (!p.empty()) return p;
  if (r.get("worst_setup_element").as_long(-2) != a.worst_setup_element ||
      r.get("worst_hold_element").as_long(-2) != a.worst_hold_element) {
    return "worst element index differs from the reference";
  }
  const Json& elements = r.get("elements");
  if (!req.detail) return elements.is_null() ? "" : "summary analyze returned elements";
  if (!elements.is_array() || elements.size() != a.elements.size()) {
    return "detail element count differs from the reference";
  }
  for (size_t i = 0; i < a.elements.size(); ++i) {
    const Json& e = elements.at(i);
    const sta::ElementTiming& t = a.elements[i];
    if (e.get("name").as_string() != ref.circuit().element(static_cast<int>(i)).name) {
      return "element " + std::to_string(i) + " name differs";
    }
    if (!same(e.get("departure").as_number(std::nan("")), t.departure)) {
      return "element " + std::to_string(i) + ": " +
             num_problem("departure", e.get("departure").as_number(), t.departure);
    }
    if (!same(e.get("setup_slack").as_number(std::nan("")), t.setup_slack)) {
      return "element " + std::to_string(i) + ": " +
             num_problem("setup_slack", e.get("setup_slack").as_number(), t.setup_slack);
    }
    p = check_optional(e, "arrival", t.arrival);
    if (p.empty()) p = check_optional(e, "hold_slack", t.hold_slack);
    if (!p.empty()) return "element " + std::to_string(i) + ": " + p;
  }
  return "";
}

std::string verify_report(const Json& r, const Request& req, StateRef& ref) {
  mintc::Expected<Json> doc = mintc::serve::parse_json(r.get("content").as_string());
  if (!doc) return "report content is not JSON";
  const Json* summary = nullptr;
  if (!req.signoff) {
    summary = &doc->get("summary");
  } else {
    for (const Json& corner : doc->get("corners").items()) {
      if (corner.get("meta").get("corner").as_string() == "typical") summary = &corner.get("summary");
    }
    if (summary == nullptr) return "signoff report has no typical corner";
  }
  const Json& v = summary->get("worst_setup_slack");
  if (!v.is_number()) return "report worst_setup_slack missing";
  const double want = ref.analysis().worst_setup_slack;
  // The report exporter renders 15 significant digits; accept that
  // rendering of the exact value as well as the exact value itself.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.15g", want);
  if (same(v.as_number(), want) || same(v.as_number(), std::strtod(buf, nullptr))) return "";
  return num_problem("report worst_setup_slack", v.as_number(), want);
}

std::string verify_sweep(const Json& r, const Request& req, StateRef& ref) {
  const std::vector<double> values = sweep_values(req);
  if (r.get("param").as_string() != (req.skew ? "clock_skew" : "scale")) return "sweep param differs";
  if (!same(r.get("base_cycle").as_number(), ref.schedule().cycle)) return "sweep base_cycle differs";
  const Json& rows = r.get("results");
  if (!rows.is_array() || rows.size() != values.size()) return "sweep row count differs";
  for (size_t i = 0; i < values.size(); ++i) {
    const Json& row = rows.at(i);
    const sta::TimingReport& a = ref.sweep_row(req.skew, values[i]);
    const double cycle = req.skew ? ref.schedule().cycle : ref.schedule().scaled(values[i]).cycle;
    std::string p;
    if (!same(row.get(req.skew ? "skew" : "factor").as_number(std::nan("")), values[i])) {
      p = "sweep value differs";
    } else if (!same(row.get("cycle").as_number(std::nan("")), cycle)) {
      p = num_problem("cycle", row.get("cycle").as_number(), cycle);
    } else if (row.get("feasible").as_bool(!a.feasible) != a.feasible ||
               row.get("converged").as_bool(!a.converged) != a.converged) {
      p = "feasible/converged differ from the reference";
    } else if (!same(row.get("worst_setup_slack").as_number(std::nan("")), a.worst_setup_slack)) {
      p = num_problem("worst_setup_slack", row.get("worst_setup_slack").as_number(),
                      a.worst_setup_slack);
    } else {
      p = check_optional(row, "worst_hold_slack", a.worst_hold_slack);
    }
    if (!p.empty()) return "sweep row " + std::to_string(i) + ": " + p;
  }
  return "";
}

std::string verify_min(const Json& r, const GenCircuit& gc, StateRef& ref, const char* field) {
  const Json& v = r.get(field);
  if (!v.is_number()) return std::string(field) + " missing";
  if (const std::optional<double> pinned = pinned_optimum(gc)) {
    if (!close_rel(v.as_number(), *pinned, 1e-6)) {
      return num_problem("paper optimum", v.as_number(), *pinned);
    }
  }
  const double want = ref.min_cycle();
  if (!close_rel(v.as_number(), want, 1e-6)) {
    return num_problem("Tc* vs graph solver", v.as_number(), want);
  }
  return "";
}

struct Read {
  const Record* rec;
  const Request* req;
  int lo;
  int hi;
};

class Tally {
 public:
  void fail(long Verification::*counter, const std::string& what) {
    const std::lock_guard<std::mutex> lk(mu_);
    ++(result_.*counter);
    if (result_.samples.size() < 8) result_.samples.push_back(what);
  }
  void attempt(long n) {
    const std::lock_guard<std::mutex> lk(mu_);
    result_.attempted += n;
  }
  Verification take() { return std::move(result_); }

 private:
  std::mutex mu_;
  Verification result_;
};

/// Everything one circuit needs: its loaded schedule, its owner's edits in
/// order, and every read of it.
struct CircuitWork {
  int circuit = 0;
  ClockSchedule schedule;
  std::vector<const Record*> events;  // edits and undos, in send order
  std::vector<Read> reads;
};

std::string describe(const Workload& w, const Record& rec, const std::string& problem) {
  const Request& req = request_of(w, rec);
  return std::string(verb_name(req.verb)) + " " + w.circuits[static_cast<size_t>(req.circuit)].key +
         (rec.conn < 0 ? " (set-up)" : " (conn " + std::to_string(rec.conn) + ")") + ": " + problem;
}

/// Check one response that carries a result, against state `ref`. Returns
/// the problem, "" when it agrees.
std::string check_read(const Workload& w, const ResponseStore& store, const Record& rec,
                       StateRef& ref) {
  const Request& req = request_of(w, rec);
  const GenCircuit& gc = w.circuits[static_cast<size_t>(req.circuit)];
  std::optional<Json> env = parse_payload(store.get(rec.payload));
  if (!env) return "unparseable response";
  const Json& r = env->get("result");
  switch (req.verb) {
    case Verb::kAnalyze: return verify_analyze(r, req, ref);
    case Verb::kReport: return verify_report(r, req, ref);
    case Verb::kSweep: return verify_sweep(r, req, ref);
    case Verb::kMin: return verify_min(r, gc, ref, "min_cycle");
    case Verb::kLoad: {
      if (r.get("elements").as_long() != ref.circuit().num_elements() ||
          r.get("paths").as_long() != ref.circuit().num_paths()) {
        return "loaded element/path counts differ";
      }
      return gc.send_schedule ? "" : verify_min(r, gc, ref, "min_cycle");
    }
    default: return "";
  }
}

void verify_circuit(const Workload& w, const ResponseStore& store, CircuitWork& cw,
                    Tally& tally) {
  Circuit circuit = build_circuit(w.circuits[static_cast<size_t>(cw.circuit)]);
  ClockSchedule& schedule = cw.schedule;
  const int n = static_cast<int>(cw.events.size());
  bool ambiguous = false;
  for (const Read& r : cw.reads) ambiguous = ambiguous || r.lo != r.hi;
  // The session only names states by content fingerprint, for reads that
  // overlap an edit.
  std::optional<sta::AnalysisSession> named;
  if (ambiguous) named.emplace(circuit, schedule, serve_options());

  struct Undo {
    bool removed = false;
    int path = 0;
    double delay = 0.0;
    mintc::CombPath removed_path;
  };
  std::vector<Undo> undo;
  std::sort(cw.reads.begin(), cw.reads.end(),
            [](const Read& a, const Read& b) { return a.lo < b.lo; });
  std::vector<const Read*> open;  // ambiguous reads not yet matched
  size_t next = 0;
  for (int k = 0; k <= n; ++k) {
    StateRef ref(circuit, schedule);
    std::map<std::pair<int, std::string>, std::string> memo;  // (payload, body) -> problem
    const auto check = [&](const Read& r) {
      const auto key = std::make_pair(r.rec->payload, r.req->body);
      auto it = memo.find(key);
      if (it == memo.end()) it = memo.emplace(key, check_read(w, store, *r.rec, ref)).first;
      if (!it->second.empty()) tally.fail(&Verification::mismatches, describe(w, *r.rec, it->second));
    };
    for (; next < cw.reads.size() && cw.reads[next].lo == k; ++next) {
      if (cw.reads[next].lo == cw.reads[next].hi) {
        check(cw.reads[next]);
      } else {
        open.push_back(&cw.reads[next]);
      }
    }
    if (!open.empty()) {
      const std::string fp = mintc::obs::hash_hex(named->content_fingerprint());
      std::vector<const Read*> still;
      for (const Read* r : open) {
        if (fingerprint_of(store.get(r->rec->payload)) == fp) {
          check(*r);
        } else if (r->hi == k) {
          tally.fail(&Verification::mismatches,
                     describe(w, *r->rec, "fingerprint names no state it could have read"));
        } else {
          still.push_back(r);
        }
      }
      open.swap(still);
    }
    if (k == n) break;

    const Record& ev = *cw.events[static_cast<size_t>(k)];
    const Request& req = request_of(w, ev);
    if (ev.payload >= 0 && !ev.ok) continue;  // rejected: the service rolled it back
    if (ev.ok && req.verb == Verb::kEdit) {
      std::optional<Json> env = parse_payload(store.get(ev.payload));
      if (!env || env->get("result").get("applied").as_long(-1) !=
                      static_cast<long>(req.edits.size())) {
        tally.fail(&Verification::mismatches, describe(w, ev, "applied count differs"));
      }
    }
    if (req.verb == Verb::kUndo) {
      if (undo.empty()) continue;
      const Undo u = undo.back();
      undo.pop_back();
      if (u.removed) {
        circuit.insert_path(u.path, u.removed_path);
      } else {
        circuit.set_path_delay(u.path, u.delay);
      }
      if (named) named->undo();
      continue;
    }
    for (const Edit& e : req.edits) {
      if (e.remove) {
        Undo u;
        u.removed = true;
        u.path = e.path;
        u.removed_path = circuit.remove_path(e.path);
        undo.push_back(std::move(u));
        if (named) named->remove_path(e.path);
      } else if (circuit.path(e.path).delay != e.delay) {  // no-op edits log nothing
        undo.push_back({false, e.path, circuit.path(e.path).delay, {}});
        circuit.set_path_delay(e.path, e.delay);
        if (named) named->set_path_delay(e.path, e.delay);
      }
    }
  }
}

}  // namespace

void Verification::add(const Verification& other) {
  attempted += other.attempted;
  errors += other.errors;
  mismatches += other.mismatches;
  missing += other.missing;
  for (const std::string& s : other.samples) {
    if (samples.size() < 8) samples.push_back(s);
  }
}

Verification verify(const Workload& w, const ResponseStore& store,
                    const std::vector<Record>& setup, const std::vector<Record>& timed,
                    int threads) {
  Tally tally;
  std::vector<CircuitWork> work(w.circuits.size());
  for (size_t c = 0; c < work.size(); ++c) {
    work[c].circuit = static_cast<int>(c);
    work[c].schedule = w.circuits[c].schedule;
  }

  // Error and missing responses count once here; everything else is checked
  // against its circuit's state below.
  const auto screen = [&](const Record& rec) {
    tally.attempt(1);
    if (rec.payload < 0) {
      tally.fail(&Verification::missing, describe(w, rec, "no response"));
      return false;
    }
    if (!rec.ok) {
      tally.fail(&Verification::errors, describe(w, rec, store.get(rec.payload).substr(0, 200)));
      return false;
    }
    return true;
  };

  // Loads without a schedule take the daemon's optimum as the base schedule.
  for (const Record& rec : setup) {
    const Request& req = request_of(w, rec);
    if (req.verb != Verb::kLoad || w.circuits[static_cast<size_t>(req.circuit)].send_schedule) continue;
    if (rec.payload < 0 || !rec.ok) continue;
    if (std::optional<Json> env = parse_payload(store.get(rec.payload))) {
      const Json& s = env->get("result").get("schedule");
      std::vector<double> start, width;
      for (const Json& v : s.get("start").items()) start.push_back(v.as_number());
      for (const Json& v : s.get("width").items()) width.push_back(v.as_number());
      work[static_cast<size_t>(req.circuit)].schedule =
          ClockSchedule(s.get("cycle").as_number(), std::move(start), std::move(width));
    }
  }
  for (const Record& rec : setup) {
    if (!screen(rec)) continue;
    const Request& req = request_of(w, rec);
    work[static_cast<size_t>(req.circuit)].reads.push_back({&rec, &req, 0, 0});
  }

  // Owner edits define the states; reads get causal bounds on which state
  // they saw.
  for (const Record& rec : timed) {
    const Request& req = request_of(w, rec);
    const bool state_change = req.verb == Verb::kEdit || req.verb == Verb::kUndo;
    if (state_change) work[static_cast<size_t>(req.circuit)].events.push_back(&rec);
    if (!screen(rec) || state_change) continue;
    work[static_cast<size_t>(req.circuit)].reads.push_back({&rec, &req, 0, 0});
  }
  for (CircuitWork& cw : work) {
    for (Read& r : cw.reads) {
      if (r.rec->conn < 0) continue;  // set-up reads precede every edit
      int lo = 0, hi = 0;
      for (const Record* ev : cw.events) {
        if (ev->conn == r.rec->conn) {
          // Same connection: strictly ordered by send time.
          lo += ev->send_ns < r.rec->send_ns ? 1 : 0;
          hi += ev->send_ns < r.rec->send_ns ? 1 : 0;
        } else {
          lo += ev->payload >= 0 && ev->recv_ns <= r.rec->send_ns ? 1 : 0;
          hi += ev->send_ns < r.rec->recv_ns ? 1 : 0;
        }
      }
      r.lo = lo;
      r.hi = hi;
    }
  }

  std::atomic<size_t> next{0};
  const auto worker = [&] {
    for (size_t i = next++; i < work.size(); i = next++) verify_circuit(w, store, work[i], tally);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < std::max(1, threads); ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return tally.take();
}

}  // namespace perfbench
