#include "workload.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>

#include "circuits/example1.h"
#include "circuits/example2.h"
#include "circuits/gaas.h"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int Rng::below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }

double Rng::eighths(double lo, double hi) {
  const long a = static_cast<long>(std::ceil(lo * 8.0));
  const long b = static_cast<long>(std::floor(hi * 8.0));
  if (b <= a) return static_cast<double>(a) / 8.0;
  return static_cast<double>(a + static_cast<long>(next() % static_cast<std::uint64_t>(b - a + 1))) /
         8.0;
}

std::string fmt_num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

namespace {

// Delay classes, in units of the phase period kPeriod (see generate_circuit).
constexpr double kPeriod = 40.0;
constexpr double kDq = 2.0;
constexpr double kSetup = 1.0;
constexpr double kHold = 0.5;
constexpr double kSlowLo = 20.0, kSlowHi = 46.0;  // kDq + kSlowHi - kPeriod = 8 borrowed
constexpr double kFastLo = 6.0, kFastHi = 22.0;   // 8 + kDq + kFastHi < kPeriod: paid back
constexpr double kWidth = 0.9 * kPeriod;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 16);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string latch_name(int stage, int slot) {
  return "S" + std::to_string(stage) + "L" + std::to_string(slot);
}

std::uint64_t fnv(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  h ^= 0xff;  // separator, so ("ab","c") and ("a","bc") differ
  return h * 0x100000001b3ull;
}

// Stages: a multiple of lcm(2, k), so slow and fast ring edges alternate
// all the way round and the wrap edge steps the phase by one.
void choose_stages(int phases, int latches, int& stages, int& per_stage) {
  const int base = phases % 2 == 0 ? phases : 2 * phases;
  const double target = std::sqrt(static_cast<double>(latches));
  stages = 0;
  for (int s = base; s <= latches; s += base) {
    if (latches % s != 0) continue;
    if (stages == 0 || std::abs(s - target) < std::abs(stages - target)) stages = s;
  }
  if (stages == 0) stages = base;
  per_stage = std::max(1, latches / stages);
}

}  // namespace

GenCircuit generate_circuit(const std::string& key, int phases, int latches, std::uint64_t seed,
                            bool send_schedule, DelayMix mix) {
  // Topology comes from the key alone and delays from the seed: seeds then
  // vary timing, not circuit shape, which keeps the work per run steady.
  Rng shape(fnv(0xcbf29ce484222325ull, key));
  Rng rng(seed);
  GenCircuit gc;
  gc.key = key;
  gc.phases = phases;
  gc.setup = kSetup;
  gc.dq = kDq;
  gc.hold = kHold;
  gc.send_schedule = send_schedule;
  int stages = 0, per_stage = 0;
  choose_stages(phases, latches, stages, per_stage);
  gc.latches = stages * per_stage;
  gc.per_stage = per_stage;
  for (int s = 0; s < stages; ++s) {
    for (int j = 0; j < per_stage; ++j) gc.phase_of.push_back(s % phases + 1);
  }
  const auto id = [&](int s, int j) { return s * per_stage + j; };

  // Ring edges: fan-in up to 3 from the previous stage, no parallel paths.
  const int fanin = std::min(3, per_stage);
  for (int s = 0; s < stages; ++s) {
    const int t = (s + 1) % stages;
    const bool slow = s % 2 == 0;
    const bool uniform = mix == DelayMix::kUniform;
    const double lo = slow && !uniform ? kSlowLo : kFastLo;
    const double hi = slow || uniform ? kSlowHi : kFastHi;
    for (int j = 0; j < per_stage; ++j) {
      std::vector<int> picked;
      while (static_cast<int>(picked.size()) < fanin) {
        const int src = shape.below(per_stage);
        bool dup = false;
        for (const int p : picked) dup = dup || p == src;
        if (!dup) picked.push_back(src);
      }
      for (const int src : picked) {
        gc.paths.push_back({id(s, src), id(t, j), rng.eighths(lo, hi), lo / 4.0, lo, hi});
      }
    }
  }
  // Long-range forward edges in the fast class (the only class of a uniform
  // mix). They span two or more stages, so none parallels a ring edge.
  if (stages >= 3) {
    const double hi = mix == DelayMix::kUniform ? kSlowHi : kFastHi;
    std::set<std::pair<int, int>> long_edges;
    for (int i = 0; i < std::max(1, gc.latches / 10); ++i) {
      const int s = shape.below(stages);
      const int t = (s + 2 + shape.below(stages - 2)) % stages;
      const int from = id(s, shape.below(per_stage));
      const int to = id(t, shape.below(per_stage));
      if (from == to || !long_edges.insert({from, to}).second) continue;
      gc.paths.push_back({from, to, rng.eighths(kFastLo, hi), kFastLo / 4.0, kFastLo, hi});
    }
  }

  std::vector<double> start, width;
  for (int p = 0; p < phases; ++p) {
    start.push_back(p * kPeriod);
    width.push_back(kWidth);
  }
  gc.schedule = mintc::ClockSchedule(phases * kPeriod, start, width);

  std::string& t = gc.lct;
  t = "circuit " + key + "\nphases " + std::to_string(phases) + "\n";
  for (int i = 0; i < gc.latches; ++i) {
    t += "latch " + latch_name(i / per_stage, i % per_stage) +
         " phase=" + std::to_string(gc.phase_of[static_cast<size_t>(i)]) + " setup=" +
         fmt_num(kSetup) + " dq=" + fmt_num(kDq) + " hold=" + fmt_num(kHold) + "\n";
  }
  for (const GenPath& p : gc.paths) {
    t += "path " + latch_name(p.from / per_stage, p.from % per_stage) + " " +
         latch_name(p.to / per_stage, p.to % per_stage) + " delay=" + fmt_num(p.delay) +
         " min=" + fmt_num(p.min) + "\n";
  }
  gc.lcs = "cycle " + fmt_num(gc.schedule.cycle) + "\n";
  for (int p = 0; p < phases; ++p) {
    gc.lcs += "phase " + std::to_string(p + 1) + " start=" + fmt_num(start[static_cast<size_t>(p)]) +
              " width=" + fmt_num(width[static_cast<size_t>(p)]) + "\n";
  }
  return gc;
}

GenCircuit builtin_circuit(const std::string& key, const std::string& name) {
  GenCircuit gc;
  gc.key = key;
  gc.builtin = name;
  gc.send_schedule = false;
  return gc;
}

mintc::Circuit build_circuit(const GenCircuit& gc) {
  if (gc.builtin == "example1") return mintc::circuits::example1();
  if (gc.builtin == "example2") return mintc::circuits::example2();
  if (gc.builtin == "gaas") return mintc::circuits::gaas_datapath();
  if (!gc.builtin.empty()) throw std::invalid_argument("unknown builtin " + gc.builtin);
  mintc::Circuit c(gc.key, gc.phases);
  for (int i = 0; i < gc.latches; ++i) {
    mintc::Element e;
    e.name = latch_name(i / gc.per_stage, i % gc.per_stage);
    e.phase = gc.phase_of[static_cast<size_t>(i)];
    e.setup = gc.setup;
    e.dq = gc.dq;
    e.hold = gc.hold;
    c.add_element(std::move(e));
  }
  for (const GenPath& p : gc.paths) c.add_path(p.from, p.to, p.delay, p.min);
  return c;
}

std::vector<double> sweep_values(const Request& req) {
  // The service's formula: from + (to - from) * i / (steps - 1).
  const double from = req.skew ? 0.0 : 0.9, to = req.skew ? 1.0 : 1.1;
  const long steps = 5;
  std::vector<double> v;
  for (long i = 0; i < steps; ++i) {
    v.push_back(from + (to - from) * static_cast<double>(i) / static_cast<double>(steps - 1));
  }
  if (!req.skew) std::reverse(v.begin(), v.end());
  return v;
}

const char* verb_name(Verb verb) {
  switch (verb) {
    case Verb::kLoad: return "load";
    case Verb::kEdit: return "edit_batch";
    case Verb::kUndo: return "undo";
    case Verb::kAnalyze: return "analyze";
    case Verb::kReport: return "report";
    case Verb::kSweep: return "sweep";
    case Verb::kMin: return "min";
  }
  return "?";
}

namespace {

std::string head(const char* verb, const GenCircuit& gc) {
  return std::string("\"verb\":\"") + verb + "\",\"circuit\":\"" + gc.key + "\"";
}

Request load_request(const std::vector<GenCircuit>& cs, int c) {
  const GenCircuit& gc = cs[static_cast<size_t>(c)];
  Request r;
  r.verb = Verb::kLoad;
  r.circuit = c;
  r.body = head("load", gc);
  if (!gc.builtin.empty()) {
    r.body += ",\"builtin\":\"" + gc.builtin + "\"";
  } else {
    r.body += ",\"text\":\"" + json_escape(gc.lct) + "\"";
    if (gc.send_schedule) r.body += ",\"schedule\":\"" + json_escape(gc.lcs) + "\"";
  }
  r.body += "}";
  return r;
}

Request analyze_request(const std::vector<GenCircuit>& cs, int c, bool detail) {
  Request r;
  r.verb = Verb::kAnalyze;
  r.circuit = c;
  r.detail = detail;
  r.body = head("analyze", cs[static_cast<size_t>(c)]) + (detail ? ",\"detail\":true}" : "}");
  return r;
}

Request report_request(const std::vector<GenCircuit>& cs, int c, bool signoff) {
  Request r;
  r.verb = Verb::kReport;
  r.circuit = c;
  r.signoff = signoff;
  r.body = head("report", cs[static_cast<size_t>(c)]) + ",\"format\":\"json\"" +
           (signoff ? ",\"signoff\":true}" : "}");
  return r;
}

Request simple_request(const std::vector<GenCircuit>& cs, int c, Verb verb) {
  Request r;
  r.verb = verb;
  r.circuit = c;
  r.body = head(verb_name(verb), cs[static_cast<size_t>(c)]) + "}";
  return r;
}

Request sweep_request(const std::vector<GenCircuit>& cs, int c, bool skew) {
  Request r;
  r.verb = Verb::kSweep;
  r.circuit = c;
  r.skew = skew;
  r.body = head("sweep", cs[static_cast<size_t>(c)]);
  if (skew) {
    r.body += ",\"param\":\"clock_skew\"";
  } else {
    r.body += ",\"factors\":[";
    const std::vector<double> values = sweep_values(r);
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) r.body += ",";
      r.body += fmt_num(values[i]);
    }
    r.body += "]";
  }
  r.body += "}";
  return r;
}

Request edit_request(const std::vector<GenCircuit>& cs, int c, std::vector<Edit> edits) {
  Request r;
  r.verb = Verb::kEdit;
  r.circuit = c;
  r.body = head("edit_batch", cs[static_cast<size_t>(c)]) + ",\"edits\":[";
  for (size_t i = 0; i < edits.size(); ++i) {
    const Edit& e = edits[i];
    if (i > 0) r.body += ",";
    if (e.remove) {
      r.body += "{\"op\":\"remove_path\",\"path\":" + std::to_string(e.path) + "}";
    } else {
      r.body += "{\"op\":\"set_path_delay\",\"path\":" + std::to_string(e.path) +
                ",\"delay\":" + fmt_num(e.delay) + "}";
    }
  }
  r.body += "]}";
  r.edits = std::move(edits);
  return r;
}

/// A delay edit that moves a random path up (or down, when it is already at
/// the top of its class range) inside its class range; the generator tracks
/// the delays it has set so increases and decreases are what they claim to
/// be.
Edit class_edit(Rng& rng, GenCircuit& gc, std::vector<double>& delay, bool increase) {
  const int p = rng.below(static_cast<int>(gc.paths.size()));
  const GenPath& gp = gc.paths[static_cast<size_t>(p)];
  double& cur = delay[static_cast<size_t>(p)];
  const bool up = increase ? cur + 0.125 <= gp.hi : cur - 0.125 < gp.lo;
  const double d = up ? rng.eighths(cur + 0.125, gp.hi) : rng.eighths(gp.lo, cur - 0.125);
  cur = d;
  return {false, p, d};
}

void add_setup(Workload& w, int first_builtin) {
  const int n = static_cast<int>(w.circuits.size());
  for (int c = first_builtin; c < n; ++c) {
    w.setup.push_back(load_request(w.circuits, c));
    w.setup.push_back(simple_request(w.circuits, c, Verb::kMin));
    w.setup.push_back(analyze_request(w.circuits, c, false));
    w.setup.push_back(report_request(w.circuits, c, false));
    w.setup.push_back(report_request(w.circuits, c, true));
  }
  for (int c = 0; c < first_builtin; ++c) w.setup.push_back(load_request(w.circuits, c));
  // Warm-up: each kind of read the streams send on a circuit, once, so the
  // timed phase starts with those responses cached; a summary analyze for
  // circuits the streams only edit and optimize.
  for (int c = 0; c < first_builtin; ++c) {
    std::set<std::string> reads;
    for (const std::vector<Request>& stream : w.streams) {
      for (const Request& r : stream) {
        if (r.circuit == c && (r.verb == Verb::kAnalyze || r.verb == Verb::kReport) &&
            reads.insert(r.body).second) {
          w.setup.push_back(r);
        }
      }
    }
    if (reads.empty()) w.setup.push_back(analyze_request(w.circuits, c, false));
  }
}

// Stream lengths: far more than a run consumes at today's speeds; a faster
// program replays the stream from its start (see Workload::streams).
constexpr int kEcoRounds = 6000;
constexpr int kSignoffRequests = 30000;
constexpr int kReclockRounds = 2000;

void make_eco_edit(Workload& w, std::uint64_t seed) {
  // Four 10^4-latch circuits, one per connection, so sessions run
  // concurrently. A round is 1-3 delay edits then a summary analyze. Edit
  // directions alternate, so batch sizes cycling 1, 2, 3 make one round in
  // three a lone increase (the warm-start path) and the others contain a
  // decrease (a cold solve). Every 40th round removes a path and the next
  // undoes it, which resets the view. The shares are fixed so every seed
  // puts the same kinds of work in a run; the seed picks paths and values.
  w.connections = 4;
  w.replay_per_conn = 150;
  const int phases[4] = {2, 4, 2, 4};
  for (int c = 0; c < 4; ++c) {
    w.circuits.push_back(generate_circuit("eco" + std::to_string(c), phases[c], 10000,
                                          seed * 131 + static_cast<std::uint64_t>(c), true,
                                          DelayMix::kBoundedBorrow));
    w.owner.push_back(c);
  }
  for (int conn = 0; conn < 4; ++conn) {
    Rng rng(seed * 977 + 17 + static_cast<std::uint64_t>(conn));
    GenCircuit& gc = w.circuits[static_cast<size_t>(conn)];
    std::vector<double> delay;
    for (const GenPath& p : gc.paths) delay.push_back(p.delay);
    std::vector<Request>& s = w.streams.emplace_back();
    long edits_made = 0;
    for (int round = 0; round < kEcoRounds; ++round) {
      if (round % 40 == 39) {
        const int p = rng.below(static_cast<int>(gc.paths.size()));
        s.push_back(edit_request(w.circuits, conn, {{true, p, 0.0}}));
        s.push_back(analyze_request(w.circuits, conn, false));
        s.push_back(simple_request(w.circuits, conn, Verb::kUndo));
        s.push_back(analyze_request(w.circuits, conn, false));
        ++round;
        continue;
      }
      std::vector<Edit> edits;
      for (int i = 0; i <= round % 3; ++i) {
        edits.push_back(class_edit(rng, gc, delay, edits_made++ % 2 == 0));
      }
      s.push_back(edit_request(w.circuits, conn, std::move(edits)));
      s.push_back(analyze_request(w.circuits, conn, false));
    }
  }
}

void make_signoff_read(Workload& w, std::uint64_t seed) {
  // Eight small circuits shared by four connections: detail analyzes and
  // json reports (plain and multi-corner signoff), with about one request in
  // 20 an edit by the circuit's owner, so the result cache both hits and
  // misses and connections contend on the session locks.
  w.connections = 4;
  w.replay_per_conn = 1000;
  const int sizes[8] = {32, 48, 64, 96, 128, 192, 256, 512};
  const int phases[8] = {2, 3, 4, 3, 2, 3, 4, 2};
  for (int c = 0; c < 8; ++c) {
    w.circuits.push_back(generate_circuit("so" + std::to_string(c), phases[c], sizes[c],
                                          seed * 131 + 7 + static_cast<std::uint64_t>(c), true,
                                          DelayMix::kBoundedBorrow));
    w.owner.push_back(c % 4);
  }
  std::vector<std::vector<double>> delay;
  for (const GenCircuit& gc : w.circuits) {
    std::vector<double>& d = delay.emplace_back();
    for (const GenPath& p : gc.paths) d.push_back(p.delay);
  }
  for (int conn = 0; conn < 4; ++conn) {
    Rng rng(seed * 977 + 29 + static_cast<std::uint64_t>(conn));
    std::vector<Request>& s = w.streams.emplace_back();
    for (int i = 0; i < kSignoffRequests; ++i) {
      if (rng.below(20) == 0) {
        const int c = conn + 4 * rng.below(2);
        GenCircuit& gc = w.circuits[static_cast<size_t>(c)];
        s.push_back(edit_request(w.circuits, c,
                                 {class_edit(rng, gc, delay[static_cast<size_t>(c)], rng.below(2) == 0)}));
        continue;
      }
      const int c = rng.below(8);
      const int kind = rng.below(10);
      if (kind < 4) {
        s.push_back(analyze_request(w.circuits, c, true));
      } else {
        s.push_back(report_request(w.circuits, c, kind >= 7));
      }
    }
  }
}

void make_reclock(Workload& w, std::uint64_t seed) {
  // Two connections, each owning two 32-, two 64- and two 128-latch circuits
  // loaded at their MLP optima. The circuits are the same for every seed:
  // their optima (how many simplex pivots, whether a loop is critical and
  // so hits the sweep cap) would otherwise make the work per run a lottery
  // of the seed. The seed picks the perturbations. Rounds cycle through the
  // circuits: set one delay to within
  // 5% of its generated value, then min, a scale sweep over the default
  // 0.9-1.1 range (which contains the base schedule), the default clock_skew
  // sweep, and an undo, so every round starts from the loaded circuit and
  // the work per round does not drift over a run. The scale sweep lists the
  // default range's five factors in descending order: reaching factor 1.0
  // from above is what runs today's session into the fixpoint's
  // 100,000-sweep cap (ascending, these circuits converge at 1.0 at once).
  w.connections = 2;
  w.replay_per_conn = 150;
  const int sizes[3] = {32, 64, 128};
  const int phases[3] = {2, 4, 2};
  constexpr int kPerConn = 6;
  for (int conn = 0; conn < 2; ++conn) {
    for (int i = 0; i < kPerConn; ++i) {
      w.circuits.push_back(generate_circuit(
          "rc" + std::to_string(conn) + "_" + std::to_string(i / 3) + "_" + std::to_string(sizes[i % 3]),
          phases[i % 3], sizes[i % 3],
          61 + static_cast<std::uint64_t>(kPerConn * conn + i), false, DelayMix::kUniform));
      w.owner.push_back(conn);
    }
  }
  for (int conn = 0; conn < 2; ++conn) {
    Rng rng(seed * 977 + 43 + static_cast<std::uint64_t>(conn));
    std::vector<Request>& s = w.streams.emplace_back();
    for (int round = 0; round < kReclockRounds; ++round) {
      const int c = kPerConn * conn + round % kPerConn;
      const GenCircuit& gc = w.circuits[static_cast<size_t>(c)];
      const int p = rng.below(static_cast<int>(gc.paths.size()));
      const double base = gc.paths[static_cast<size_t>(p)].delay;
      double d = rng.eighths(base * 0.95, base * 1.05);
      if (d == base) d += 0.125;  // a no-op edit would leave nothing to undo
      s.push_back(edit_request(w.circuits, c, {{false, p, d}}));
      s.push_back(simple_request(w.circuits, c, Verb::kMin));
      s.push_back(sweep_request(w.circuits, c, false));
      s.push_back(sweep_request(w.circuits, c, true));
      s.push_back(simple_request(w.circuits, c, Verb::kUndo));
    }
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"eco_edit", "signoff_read", "reclock"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "eco_edit") {
    make_eco_edit(w, seed);
  } else if (name == "signoff_read") {
    make_signoff_read(w, seed);
  } else if (name == "reclock") {
    make_reclock(w, seed);
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  // Builtin paper circuits go last so workload circuit indices match their
  // owners' connection numbering above.
  const int first_builtin = static_cast<int>(w.circuits.size());
  for (const char* b : {"example1", "example2", "gaas"}) {
    w.circuits.push_back(builtin_circuit(std::string("paper.") + b, b));
    w.owner.push_back(-1);
  }
  add_setup(w, first_builtin);

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const GenCircuit& gc : w.circuits) h = fnv(fnv(h, gc.lct), gc.lcs);
  for (const Request& r : w.setup) h = fnv(h, r.body);
  for (const auto& stream : w.streams) {
    for (const Request& r : stream) h = fnv(h, r.body);
  }
  w.hash = h;
  return w;
}

}  // namespace perfbench
