// The traced run (--trace 1).
//
// 1. A socket run like the untraced one (one set-up, half the run length),
//    which also asks the daemon's `stats` verb for the cache hit ratio.
// 2. An untraced in-process replay of the same request stream — set-up
//    first, then the first Workload::replay_per_conn requests of each
//    connection, round-robin — through TimingService::handle_line.
// 3. A traced in-process replay of exactly those requests, each with
//    "cost": true. Spans time the three calls handle_line is made of
//    (parse_request, TimingService::handle, encode_frame) and, on a mirror
//    that follows the same edits, the public calls into each module that
//    the service made for the request: parser, model, graph, sta, report,
//    opt, lp and the JSON layer. Mirror calls are made only for work the
//    service did (a cache hit does none of it).
//
// Every response of all three passes is verified. The per-layer metrics
// are means per call over the whole replay, set-up included: the set-up's
// builtin loads, optima and reports are what reach the report and opt
// layers on workloads whose streams do not.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "bench.h"
#include "graph/scc.h"
#include "lp/simplex.h"
#include "opt/constraints.h"
#include "opt/graph_solver.h"
#include "opt/mlp.h"
#include "parser/lct.h"
#include "report/export.h"
#include "report/slackdb.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "spans.h"
#include "sta/analysis.h"
#include "sta/corners.h"
#include "sta/fixpoint.h"
#include "sta/session.h"

namespace perfbench {

namespace {

namespace sta = mintc::sta;
using mintc::serve::Json;

std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Item {
  const Request* req;
  Record tag;  // conn and index
};

/// Follows the replayed edits and re-makes, under spans, the calls the
/// service made for each request.
class Mirror {
 public:
  Mirror(const Workload& w, SpanRecorder& spans) : w_(w), spans_(spans), state_(w.circuits.size()) {}

  void observe(const Request& req, const Json& response, long rid) {
    if (!response.get("ok").as_bool(false)) return;
    const Json& result = response.get("result");
    const bool cached = response.get("cached").as_bool(false);
    State* st = req.verb == Verb::kLoad ? nullptr : state(req.circuit);
    if (req.verb != Verb::kLoad && st == nullptr) return;
    switch (req.verb) {
      case Verb::kLoad: load(req, result, rid); break;
      case Verb::kEdit: edit(*st, req, rid); break;
      case Verb::kUndo:
        // Streams undo only the edit batch just before, a single edit.
        st->session->undo();
        st->view_stale = st->view_stale || st->last_removed;
        break;
      case Verb::kAnalyze:
        if (!cached) analyze(*st, rid);
        break;
      case Verb::kReport:
        if (!cached) report(*st, req, rid);
        break;
      case Verb::kSweep:
        if (!cached) sweep(*st, req, rid);
        break;
      case Verb::kMin:
        if (!cached) minimize(*st, rid);
        break;
    }
    if (req.verb == Verb::kAnalyze || req.verb == Verb::kReport || req.verb == Verb::kSweep ||
        req.verb == Verb::kMin) {
      std::string text;
      {
        Scoped s(spans_, "json.dump", rid);
        text = result.dump();
      }
      Scoped s(spans_, "json.parse", rid);
      (void)mintc::serve::parse_json(text);
    }
  }

  sta::AnalysisSession::Counters counters() const {
    sta::AnalysisSession::Counters sum;
    for (const std::optional<State>& st : state_) {
      if (!st) continue;
      const sta::AnalysisSession::Counters& c = st->session->counters();
      sum.analyses += c.analyses;
      sum.warm_hits += c.warm_hits;
      sum.cold_fallbacks += c.cold_fallbacks;
    }
    return sum;
  }
  double lp_rows = 0.0, lp_pivots = 0.0, report_bytes = 0.0, parse_bytes = 0.0;
  long lp_solves = 0, reports = 0;

 private:
  struct State {
    std::unique_ptr<sta::AnalysisSession> session;
    bool view_stale = true;
    bool last_removed = false;  // the last edit batch removed a path
  };
  State* state(int c) {
    std::optional<State>& st = state_[static_cast<size_t>(c)];
    return st ? &*st : nullptr;
  }
  static sta::AnalysisOptions options() {
    sta::AnalysisOptions o;
    o.check_hold = true;
    return o;
  }
  static mintc::report::SlackDbOptions report_options() {
    mintc::report::SlackDbOptions o;
    o.nworst = 10;
    o.check_hold = true;
    return o;
  }

  void load(const Request& req, const Json& result, long rid) {
    const GenCircuit& gc = w_.circuits[static_cast<size_t>(req.circuit)];
    if (!gc.lct.empty()) {
      Scoped s(spans_, "parser.parse_circuit", rid);
      (void)mintc::parser::parse_circuit(gc.lct);
      parse_bytes += static_cast<double>(gc.lct.size());
    }
    mintc::Circuit c = build_circuit(gc);
    {
      Scoped s(spans_, "model.validate", rid);
      (void)c.validate();
    }
    mintc::ClockSchedule schedule = gc.schedule;
    if (!gc.send_schedule) {
      const Json& s = result.get("schedule");
      std::vector<double> start, width;
      for (const Json& v : s.get("start").items()) start.push_back(v.as_number());
      for (const Json& v : s.get("width").items()) width.push_back(v.as_number());
      schedule = mintc::ClockSchedule(s.get("cycle").as_number(), start, width);
    }
    State st;
    st.session = std::make_unique<sta::AnalysisSession>(std::move(c), schedule, options());
    state_[static_cast<size_t>(req.circuit)] = std::move(st);
  }

  void edit(State& st, const Request& req, long rid) {
    st.last_removed = false;
    for (const Edit& e : req.edits) {
      st.last_removed = st.last_removed || e.remove;
      if (e.remove) {
        st.session->remove_path(e.path);
        st.view_stale = true;
      } else {
        st.session->set_path_delay(e.path, e.delay);
      }
    }
    Scoped s(spans_, "model.validate", rid);
    (void)st.session->circuit().validate();
  }

  void analyze(State& st, long rid) {
    const mintc::Circuit& c = st.session->circuit();
    if (st.view_stale) {
      // What a view (re)build costs: the flattening, and the SCC plan a
      // cached partition would hold.
      std::optional<mintc::TimingView> view;
      {
        Scoped s(spans_, "model.view_build", rid);
        view.emplace(c);
      }
      Scoped s(spans_, "graph.scc", rid);
      (void)mintc::graph::strongly_connected_components(sta::latch_graph_of(*view));
      st.view_stale = false;
    }
    {
      Scoped s(spans_, "sta.session_analyze", rid);
      (void)st.session->analyze();
    }
    Scoped s(spans_, "sta.check_schedule", rid);
    (void)sta::check_schedule(c, st.session->schedule(), options());
  }

  void report(State& st, const Request& req, long rid) {
    const mintc::Circuit& c = st.session->circuit();
    std::string text;
    if (req.signoff) {
      std::optional<mintc::report::SignoffDB> db;
      {
        Scoped s(spans_, "report.signoff", rid);
        db.emplace(mintc::report::build_signoff(c, st.session->schedule(),
                                                sta::standard_corners(0.1), report_options()));
      }
      Scoped s(spans_, "report.render", rid);
      text = mintc::report::signoff_json(*db);
    } else {
      std::optional<mintc::report::SlackDB> db;
      {
        Scoped s(spans_, "report.slackdb", rid);
        db.emplace(mintc::report::build_slackdb(c, st.session->schedule(), report_options()));
      }
      Scoped s(spans_, "report.render", rid);
      text = mintc::report::report_json(*db);
    }
    report_bytes += static_cast<double>(text.size());
    ++reports;
  }

  void sweep(State& st, const Request& req, long rid) {
    Scoped outer(spans_, "sta.sweep", rid);
    sta::AnalysisSession& s = *st.session;
    const mintc::ClockSchedule base = s.schedule();
    const size_t mark = s.mark();
    for (const double v : sweep_values(req)) {
      if (req.skew) {
        for (int i = 0; i < s.circuit().num_elements(); ++i) s.set_element_skew(i, v);
      } else {
        s.set_schedule(base.scaled(v));
      }
      Scoped inner(spans_, "sta.session_analyze", rid);
      (void)s.analyze();
    }
    s.undo_to(mark);
  }

  void minimize(State& st, long rid) {
    const mintc::Circuit& c = st.session->circuit();
    std::optional<mintc::opt::GeneratedLp> lp;
    {
      Scoped s(spans_, "opt.generate_lp", rid);
      lp.emplace(mintc::opt::generate_lp(c));
    }
    lp_rows += lp->counts.rows();
    {
      Scoped s(spans_, "lp.simplex", rid);
      const mintc::lp::Solution sol = mintc::lp::SimplexSolver().solve(lp->model);
      lp_pivots += sol.stats.phase1_pivots + sol.stats.phase2_pivots;
      ++lp_solves;
    }
    {
      Scoped s(spans_, "opt.mlp", rid);
      mintc::opt::MlpOptions o;
      o.assume_valid = true;
      (void)mintc::opt::minimize_cycle_time(c, o);
    }
    Scoped s(spans_, "opt.graph_solver", rid);
    (void)mintc::opt::minimize_cycle_time_graph(c);
  }

  const Workload& w_;
  SpanRecorder& spans_;
  std::vector<std::optional<State>> state_;
};

/// A replayed record: request ids and ordering follow the replay position
/// (one thread, so each response precedes the next request).
Record replay_record(const Item& item, size_t pos) {
  Record rec = item.tag;
  rec.send_ns = 2 * static_cast<std::int64_t>(pos);
  rec.recv_ns = rec.send_ns + 1;
  return rec;
}

void split(const std::vector<Record>& all, std::vector<Record>& setup, std::vector<Record>& timed) {
  for (const Record& r : all) (r.conn < 0 ? setup : timed).push_back(r);
}

}  // namespace

int run_traced(const Workload& w, const Options& opt) {
  // 1. Socket run.
  ResponseStore store;
  // Half the run length: the socket run only supplies the transport share
  // and the cache hit ratio here.
  Options socket_opt = opt;
  socket_opt.setup_reps = 1;
  socket_opt.setup_seconds = 0.0;
  socket_opt.seconds = opt.seconds / 2;
  const SocketRun run = run_socket(w, store, socket_opt, true);
  if (run.setup_s.empty()) {
    std::fprintf(stderr, "error: %s\n", run.problem.c_str());
    return 1;
  }
  std::vector<double> socket_us;
  for (const Record& r : run.timed) {
    if (r.payload >= 0) socket_us.push_back(static_cast<double>(r.recv_ns - r.send_ns) / 1e3);
  }

  std::vector<Item> items;
  for (size_t i = 0; i < w.setup.size(); ++i) {
    Record tag;
    tag.index = static_cast<int>(i);
    items.push_back({&w.setup[i], tag});
  }
  for (int pos = 0; pos < w.replay_per_conn; ++pos) {
    for (int c = 0; c < w.connections; ++c) {
      Record tag;
      tag.conn = c;
      tag.index = pos;
      items.push_back({&w.streams[static_cast<size_t>(c)][static_cast<size_t>(pos)], tag});
    }
  }

  // 2. Untraced in-process replay. The time limit only keeps a run of a
  // much slower program inside the benchmark's time budget.
  std::vector<Record> plain;
  std::vector<double> plain_us;
  double plain_total_us = 0.0;
  {
    mintc::serve::TimingService service;
    const std::int64_t deadline = clock_ns() + 60'000'000'000;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].tag.conn >= 0 && clock_ns() > deadline) break;
      const long id = static_cast<long>(i) + 1;
      std::string frame = frame_of(*items[i].req, id);
      frame.pop_back();
      const std::int64_t t0 = clock_ns();
      std::string out = service.handle_line(frame);
      const double us = static_cast<double>(clock_ns() - t0) / 1e3;
      plain_total_us += us;
      if (items[i].tag.conn >= 0) plain_us.push_back(us);
      out.pop_back();
      Record rec = replay_record(items[i], i);
      capture(out, id, store, rec);
      plain.push_back(rec);
    }
  }
  const size_t n = plain.size();

  // 3. Traced replay of the same requests.
  SpanRecorder spans;
  Mirror mirror(w, spans);
  std::vector<Record> traced;
  double response_bytes = 0.0, sweeps = 0.0, relaxations = 0.0, max_sweeps = 0.0;
  long stream_requests = 0;
  struct VerbRow {
    std::vector<double> plain_us, traced_us;
    double sweeps = 0.0, max_sweeps = 0.0;
  };
  std::map<std::string, VerbRow> verbs;
  {
    mintc::serve::TimingService service;
    for (size_t i = 0; i < n; ++i) {
      const Request& req = *items[i].req;
      const long id = static_cast<long>(i) + 1;
      const long rid = items[i].tag.conn < 0 ? -1 - static_cast<long>(i) : static_cast<long>(i);
      std::string frame = frame_of(req, id, ",\"cost\":true");
      frame.pop_back();
      Json response;
      std::string out;
      const size_t root_index = spans.spans().size();
      {
        Scoped root(spans, "request", rid);
        std::optional<mintc::Expected<Json>> parsed;
        {
          Scoped s(spans, "serve.parse_request", rid);
          parsed.emplace(mintc::serve::parse_request(frame));
        }
        {
          Scoped s(spans, "serve.handle", rid);
          response = *parsed ? service.handle(**parsed)
                             : mintc::serve::error_response(Json(), parsed->error());
        }
        Scoped s(spans, "serve.encode_frame", rid);
        out = mintc::serve::encode_frame(response);
      }
      const Span root = spans.spans()[root_index];
      response_bytes += static_cast<double>(out.size());
      out.pop_back();
      Record rec = replay_record(items[i], i);
      capture(out, id, store, rec);
      traced.push_back(rec);
      if (items[i].tag.conn >= 0) {
        const double sw = response.get("cost").get("sweeps").as_number();
        sweeps += sw;
        relaxations += response.get("cost").get("relaxations").as_number();
        max_sweeps = std::max(max_sweeps, sw);
        ++stream_requests;
        std::string label = verb_name(req.verb);
        if (req.verb == Verb::kSweep) {
          label += req.skew ? " clock_skew" : " scale, descending";
        }
        VerbRow& row = verbs[label];
        row.plain_us.push_back(plain_us[static_cast<size_t>(stream_requests - 1)]);
        row.traced_us.push_back(static_cast<double>(root.end_ns - root.start_ns) / 1e3);
        row.sweeps += sw;
        row.max_sweeps = std::max(row.max_sweeps, sw);
      }
      mirror.observe(req, response, rid);
    }
  }

  // Verification of all three passes.
  std::vector<Record> plain_setup, plain_timed, traced_setup, traced_timed;
  split(plain, plain_setup, plain_timed);
  split(traced, traced_setup, traced_timed);
  Verification total;
  total.add(verify(w, store, run.setups.back(), run.timed, 4));
  total.add(verify(w, store, plain_setup, plain_timed, 4));
  total.add(verify(w, store, traced_setup, traced_timed, 4));

  // Per-layer table.
  std::map<std::string, SpanRecorder::Row> rows;
  for (const SpanRecorder::Row& r : spans.rows()) rows[r.name] = r;
  const auto mean_us = [&](const char* name) {
    const auto it = rows.find(name);
    return it == rows.end() || it->second.calls == 0 ? 0.0
                                                      : it->second.busy_us / static_cast<double>(it->second.calls);
  };
  const double request_us = rows["request"].busy_us;
  const double traced_serve_us = rows["serve.parse_request"].busy_us + rows["serve.handle"].busy_us +
                                 rows["serve.encode_frame"].busy_us;
  const double per = stream_requests > 0 ? static_cast<double>(stream_requests) : 1.0;
  const sta::AnalysisSession::Counters counters = mirror.counters();
  const auto per_call = [](double total_v, double calls) { return calls > 0 ? total_v / calls : 0.0; };

  const std::vector<Metric> metrics = {
      {"serve.parse_request_us", mean_us("serve.parse_request"), "us"},
      {"serve.handle_us", mean_us("serve.handle"), "us"},
      {"serve.encode_frame_us", mean_us("serve.encode_frame"), "us"},
      {"serve.response_bytes", per_call(response_bytes, static_cast<double>(n)), "bytes"},
      {"serve.cache_hit_ratio", run.cache_hit_ratio, "ratio"},
      {"serve.transport_us", quantile(socket_us, 0.5) - quantile(plain_us, 0.5), "us"},
      {"json.parse_us", mean_us("json.parse"), "us"},
      {"json.dump_us", mean_us("json.dump"), "us"},
      {"report.slackdb_us", mean_us("report.slackdb"), "us"},
      {"report.signoff_us", mean_us("report.signoff"), "us"},
      {"report.render_us", mean_us("report.render"), "us"},
      {"report.bytes", per_call(mirror.report_bytes, static_cast<double>(mirror.reports)), "bytes"},
      {"sta.session_analyze_us", mean_us("sta.session_analyze"), "us"},
      {"sta.warm_share", per_call(static_cast<double>(counters.warm_hits), static_cast<double>(counters.analyses)), "ratio"},
      {"sta.cold_fallbacks", static_cast<double>(counters.cold_fallbacks), "count"},
      {"sta.sweeps_per_request", sweeps / per, "count"},
      {"sta.max_sweeps_per_request", max_sweeps, "count"},
      {"sta.relaxations_per_request", relaxations / per, "count"},
      {"sta.check_schedule_us", mean_us("sta.check_schedule"), "us"},
      {"model.view_build_us", mean_us("model.view_build"), "us"},
      {"model.validate_us", mean_us("model.validate"), "us"},
      {"graph.scc_us", mean_us("graph.scc"), "us"},
      {"opt.generate_lp_us", mean_us("opt.generate_lp"), "us"},
      {"opt.lp_rows", per_call(mirror.lp_rows, static_cast<double>(mirror.lp_solves)), "count"},
      {"opt.mlp_us", mean_us("opt.mlp"), "us"},
      {"opt.graph_solver_us", mean_us("opt.graph_solver"), "us"},
      {"lp.simplex_us", mean_us("lp.simplex"), "us"},
      {"lp.pivots", per_call(mirror.lp_pivots, static_cast<double>(mirror.lp_solves)), "count"},
      {"parser.parse_circuit_us", mean_us("parser.parse_circuit"), "us"},
      {"parser.mb_per_s", per_call(mirror.parse_bytes, rows["parser.parse_circuit"].busy_us), "MB/s"},
      {"trace.overhead_share", per_call(traced_serve_us, plain_total_us) - 1.0, "ratio"},
  };

  std::printf("workload %s  seed %llu  stream hash %016llx  traced run\n", w.name.c_str(),
              static_cast<unsigned long long>(opt.seed), static_cast<unsigned long long>(w.hash));
  std::printf("socket run: %zu requests in %.3f s; in-process replay: %zu of them after %zu set-up requests\n",
              run.timed.size(), run.elapsed_s, n - w.setup.size(), w.setup.size());
  std::printf("\nper layer (spans around public calls; share = self time / in-process request time %.1f ms)\n",
              request_us / 1e3);
  std::printf("  %-24s %9s %12s %12s %8s\n", "span", "calls", "busy ms", "self ms", "share");
  std::vector<SpanRecorder::Row> sorted;
  for (const auto& [name, row] : rows) sorted.push_back(row);
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) { return a.self_us > b.self_us; });
  for (const SpanRecorder::Row& r : sorted) {
    std::printf("  %-24s %9ld %12.3f %12.3f %7.1f%%\n", r.name.c_str(), r.calls, r.busy_us / 1e3,
                r.self_us / 1e3, request_us > 0 ? 100.0 * r.self_us / request_us : 0.0);
  }
  std::printf("\nper verb (stream requests): untraced vs traced in-process p50, engine sweeps from the cost envelope\n");
  std::printf("  %-22s %8s %14s %14s %14s %14s\n", "verb", "count", "untraced us", "traced us",
              "sweeps/req", "max sweeps");
  for (const auto& [verb, row] : verbs) {
    std::printf("  %-22s %8zu %14.1f %14.1f %14.1f %14.0f\n", verb.c_str(), row.plain_us.size(),
                quantile(row.plain_us, 0.5), quantile(row.traced_us, 0.5),
                row.sweeps / static_cast<double>(row.plain_us.size()), row.max_sweeps);
  }
  std::printf("\ntracing overhead: traced serve calls %.1f ms vs untraced handle_line %.1f ms (%+.1f%%)\n",
              traced_serve_us / 1e3, plain_total_us / 1e3, 100.0 * (per_call(traced_serve_us, plain_total_us) - 1.0));
  std::printf("socket p50 %.1f us vs in-process handle_line p50 %.1f us\n\n", quantile(socket_us, 0.5),
              quantile(plain_us, 0.5));
  for (const Metric& m : metrics) std::printf("  %-28s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& s : total.samples) std::printf("  FAIL %s\n", s.c_str());
  if (!run.daemon_ok) std::printf("  FAIL %s\n", run.problem.c_str());
  if (!opt.trace_out.empty()) {
    if (spans.write_chrome_trace(opt.trace_out)) {
      std::printf("wrote %s (%zu spans)\n", opt.trace_out.c_str(), spans.spans().size());
    } else {
      std::printf("  could not write %s\n", opt.trace_out.c_str());
    }
  }
  print_result(total.failed() == 0 && run.daemon_ok, total.attempted,
               total.failed() + (run.daemon_ok ? 0 : 1), metrics);
  return 0;
}

}  // namespace perfbench
