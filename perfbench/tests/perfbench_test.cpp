// Tests of the benchmark itself: seeded generation and output verification.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "parser/lcs.h"
#include "parser/lct.h"
#include "reference.h"
#include "serve/service.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(Workload, SameSeedSameBytes) {
  for (const std::string& name : workload_names()) {
    const Workload a = make_workload(name, 7);
    const Workload b = make_workload(name, 7);
    EXPECT_EQ(a.hash, b.hash) << name;
    ASSERT_EQ(a.streams.size(), b.streams.size()) << name;
    for (size_t c = 0; c < a.streams.size(); ++c) {
      ASSERT_EQ(a.streams[c].size(), b.streams[c].size()) << name;
      for (size_t i = 0; i < a.streams[c].size(); ++i) {
        ASSERT_EQ(a.streams[c][i].body, b.streams[c][i].body) << name << " conn " << c << " #" << i;
      }
    }
    ASSERT_EQ(a.circuits.size(), b.circuits.size());
    for (size_t c = 0; c < a.circuits.size(); ++c) EXPECT_EQ(a.circuits[c].lct, b.circuits[c].lct);
    EXPECT_NE(a.hash, make_workload(name, 8).hash) << name;
  }
}

TEST(Workload, TextMatchesTheMirrorCircuit) {
  const Workload w = make_workload("signoff_read", 3);
  for (const GenCircuit& gc : w.circuits) {
    if (!gc.builtin.empty()) continue;
    const mintc::Circuit mirror = build_circuit(gc);
    mintc::Expected<mintc::Circuit> parsed = mintc::parser::parse_circuit(gc.lct);
    ASSERT_TRUE(parsed) << gc.key;
    ASSERT_EQ(parsed->num_elements(), mirror.num_elements());
    ASSERT_EQ(parsed->num_paths(), mirror.num_paths());
    for (int p = 0; p < mirror.num_paths(); ++p) {
      EXPECT_EQ(parsed->path(p).from, mirror.path(p).from);
      EXPECT_EQ(parsed->path(p).to, mirror.path(p).to);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->path(p).delay),
                std::bit_cast<std::uint64_t>(mirror.path(p).delay));
      EXPECT_EQ(parsed->path(p).min_delay, mirror.path(p).min_delay);
    }
    for (int i = 0; i < mirror.num_elements(); ++i) {
      EXPECT_EQ(parsed->element(i).name, mirror.element(i).name);
      EXPECT_EQ(parsed->element(i).phase, mirror.element(i).phase);
    }
    EXPECT_TRUE(mirror.validate().empty()) << gc.key;
    mintc::Expected<mintc::ClockSchedule> schedule = mintc::parser::parse_schedule(gc.lcs);
    ASSERT_TRUE(schedule);
    EXPECT_EQ(schedule->cycle, gc.schedule.cycle);
    EXPECT_EQ(schedule->start, gc.schedule.start);
    EXPECT_EQ(schedule->width, gc.schedule.width);
  }
}

/// The set-up, then the first `per_conn` requests of every connection,
/// round-robin, through an in-process service.
struct Replay {
  ResponseStore store;
  std::vector<Record> setup, timed;
};

void replay(const Workload& w, int per_conn, Replay& out) {
  mintc::serve::TimingService service;
  long id = 0;
  std::int64_t t = 0;
  const auto send = [&](const Request& req, Record rec) {
    std::string frame = "{\"id\":" + std::to_string(++id) + "," + req.body;
    std::string line = service.handle_line(frame);
    line.pop_back();
    rec.send_ns = t++;
    rec.recv_ns = t++;
    capture(line, id, out.store, rec);
    (rec.conn < 0 ? out.setup : out.timed).push_back(rec);
  };
  for (size_t i = 0; i < w.setup.size(); ++i) {
    Record rec;
    rec.index = static_cast<int>(i);
    send(w.setup[i], rec);
  }
  for (int pos = 0; pos < per_conn; ++pos) {
    for (int c = 0; c < w.connections; ++c) {
      Record rec;
      rec.conn = c;
      rec.index = pos;
      send(w.streams[static_cast<size_t>(c)][static_cast<size_t>(pos)], rec);
    }
  }
}

/// Replace the first number after `key` (after `anchor`, when given) in
/// record `rec`'s payload with its next representable double, i.e. the
/// smallest possible wrong answer.
bool perturb(Replay& r, Record& rec, const std::string& key, const std::string& anchor = "") {
  std::string payload = r.store.get(rec.payload);
  const size_t from = anchor.empty() ? 0 : payload.find(anchor);
  if (from == std::string::npos) return false;
  const size_t at = payload.find(key, from);
  if (at == std::string::npos) return false;
  const size_t start = at + key.size();
  size_t end = start;
  while (end < payload.size() && std::string("+-.0123456789eE").find(payload[end]) != std::string::npos) {
    ++end;
  }
  const double v = std::stod(payload.substr(start, end - start));
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::nextafter(v, 1e300));
  payload.replace(start, end - start, buf);
  rec.payload = r.store.add(payload);
  return true;
}

Record* find(Replay& r, const Workload& w, Verb verb, bool detail_or_signoff) {
  for (Record& rec : r.timed) {
    const Request& req = request_of(w, rec);
    if (req.verb == verb && (req.detail || req.signoff) == detail_or_signoff && rec.ok) return &rec;
  }
  return nullptr;
}

TEST(Verify, AcceptsTheServiceAndCatchesOnePerturbedNumber) {
  const Workload w = make_workload("signoff_read", 5);
  Replay r;
  replay(w, 60, r);
  const Verification clean = verify(w, r.store, r.setup, r.timed, 2);
  EXPECT_EQ(clean.failed(), 0) << (clean.samples.empty() ? "" : clean.samples[0]);
  EXPECT_EQ(clean.attempted, static_cast<long>(r.setup.size() + r.timed.size()));

  struct Case {
    Verb verb;
    bool flag;
    std::string key;
    std::string anchor;
  };
  // The report's own JSON text is escaped inside the payload; a signoff
  // report is checked on its typical corner.
  const std::string slack = "\\\"worst_setup_slack\\\": ";
  for (const Case& c : {Case{Verb::kAnalyze, true, "\"setup_slack\":", ""},
                        Case{Verb::kReport, false, slack, ""},
                        Case{Verb::kReport, true, slack, "\\\"corner\\\": \\\"typical\\\""}}) {
    Replay bad;
    replay(w, 60, bad);
    Record* rec = find(bad, w, c.verb, c.flag);
    ASSERT_NE(rec, nullptr);
    ASSERT_TRUE(perturb(bad, *rec, c.key, c.anchor));
    const Verification v = verify(w, bad.store, bad.setup, bad.timed, 2);
    EXPECT_GE(v.mismatches, 1) << verb_name(c.verb) << " " << c.key;
  }
}

TEST(Verify, CatchesAWrongOptimumAndAWrongSweepRow) {
  const Workload w = make_workload("reclock", 2);
  Replay r;
  replay(w, 5, r);
  const Verification clean = verify(w, r.store, r.setup, r.timed, 2);
  EXPECT_EQ(clean.failed(), 0) << (clean.samples.empty() ? "" : clean.samples[0]);

  for (const auto& [verb, key] : {std::pair{Verb::kMin, std::string("\"min_cycle\":")},
                                  std::pair{Verb::kSweep, std::string("\"worst_setup_slack\":")}}) {
    Replay bad;
    replay(w, 5, bad);
    Record* rec = find(bad, w, verb, false);
    ASSERT_NE(rec, nullptr);
    // Tc* is compared within 1e-6 relative, so move it by more than that.
    if (verb == Verb::kMin) {
      std::string payload = bad.store.get(rec->payload);
      const size_t at = payload.find(key) + key.size();
      const size_t end = payload.find(',', at);
      const double v = std::stod(payload.substr(at, end - at));
      payload.replace(at, end - at, fmt_num(v * (1 + 1e-5)));
      rec->payload = bad.store.add(payload);
    } else {
      ASSERT_TRUE(perturb(bad, *rec, key));
    }
    const Verification v = verify(w, bad.store, bad.setup, bad.timed, 2);
    EXPECT_GE(v.mismatches, 1) << verb_name(verb);
  }
}

TEST(Verify, CountsErrorsAndMissingResponses) {
  const Workload w = make_workload("signoff_read", 5);
  Replay r;
  replay(w, 10, r);
  r.timed[3].payload = -1;
  r.timed[4].ok = false;
  const Verification v = verify(w, r.store, r.setup, r.timed, 1);
  EXPECT_EQ(v.missing, 1);
  EXPECT_EQ(v.errors, 1);
}

}  // namespace
}  // namespace perfbench
