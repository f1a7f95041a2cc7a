// Unit tests for the whole-simulation snapshot/restore layer
// (core/snapshot): typed writer/reader framing, image serialize/parse with
// checksum rejection, registry all-or-nothing restore, component
// round-trips, and the arm-once / restore-once guards on the AppManager
// snapshot coordinator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "autopilot/sensor.hpp"
#include "core/app_manager.hpp"
#include "core/snapshot.hpp"
#include "grid/testbeds.hpp"
#include "reschedule/journal.hpp"
#include "services/gis.hpp"
#include "services/ibp.hpp"
#include "services/nws.hpp"
#include "sim/engine.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace grads::core {
namespace {

// --- Writer/reader framing. ------------------------------------------------

TEST(SnapshotFraming, RoundTripsEveryFieldType) {
  SnapshotWriter w;
  w.putU64(0xfeedfacecafeULL);
  w.putI64(-12345);
  w.putF64(2.5e-3);
  w.putBool(true);
  w.putBool(false);
  w.putStr("grid.fabric");
  w.putStr("");  // empty strings must round-trip too

  SnapshotReader r(w.words());
  EXPECT_EQ(r.getU64(), 0xfeedfacecafeULL);
  EXPECT_EQ(r.getI64(), -12345);
  EXPECT_EQ(r.getF64(), 2.5e-3);
  EXPECT_TRUE(r.getBool());
  EXPECT_FALSE(r.getBool());
  EXPECT_EQ(r.getStr(), "grid.fabric");
  EXPECT_EQ(r.getStr(), "");
  EXPECT_TRUE(r.done());
}

TEST(SnapshotFraming, TypeTagMismatchThrows) {
  SnapshotWriter w;
  w.putF64(1.0);
  SnapshotReader r(w.words());
  EXPECT_THROW(r.getU64(), SnapshotError);  // wrong type, loud failure
}

TEST(SnapshotFraming, ExhaustionThrows) {
  SnapshotWriter w;
  w.putU64(1);
  SnapshotReader r(w.words());
  r.getU64();
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.getU64(), SnapshotError);
}

TEST(SnapshotFraming, NegativeZeroAndNanBitsPreserved) {
  SnapshotWriter w;
  w.putF64(-0.0);
  SnapshotReader r(w.words());
  const double v = r.getF64();
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(std::signbit(v));  // bit-exact, not value-rounded
}

// --- Field walker: w(a, b, ...) / r(a, b, ...). ----------------------------

enum class Small : std::uint8_t { kA = 0, kB = 7 };
enum class Signed : int { kNeg = -3, kPos = 5 };

std::uint64_t bitsOf(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// The walker must write exactly the tags and words the hand-written put*
// calls it replaced wrote: the snapshot wire format is unchanged.
TEST(SnapshotWalker, ScalarsWriteTheTagOfTheirType) {
  const std::uint64_t nanBits = 0x7ff8deadbeef0001ULL;
  double nan = 0.0;
  std::memcpy(&nan, &nanBits, sizeof(nan));

  SnapshotWriter walked;
  walked(true, -0.0, nan, std::int32_t{-7}, std::int64_t{-1},
         std::size_t{42}, std::uint32_t{0xffffffffu}, Small::kB,
         Signed::kNeg, std::string("grid.fabric"));
  SnapshotWriter byHand;
  byHand.putBool(true);
  byHand.putF64(-0.0);
  byHand.putF64(nan);
  byHand.putI64(-7);
  byHand.putI64(-1);
  byHand.putU64(42);
  byHand.putU64(0xffffffffu);
  byHand.putU64(7);   // unsigned enum: its underlying type, as u64
  byHand.putI64(-3);  // signed enum: as i64
  byHand.putStr("grid.fabric");
  EXPECT_EQ(walked.words(), byHand.words());

  bool b = false;
  double negZero = 1.0;
  double n = 0.0;
  std::int32_t i32 = 0;
  std::int64_t i64 = 0;
  std::size_t sz = 0;
  std::uint32_t u32 = 0;
  Small small = Small::kA;
  Signed sgn = Signed::kPos;
  std::string str = "stale";
  SnapshotReader r(walked.words());
  r(b, negZero, n, i32, i64, sz, u32, small, sgn, str);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(b);
  EXPECT_EQ(bitsOf(negZero), bitsOf(-0.0));
  EXPECT_EQ(bitsOf(n), nanBits);
  EXPECT_EQ(i32, -7);
  EXPECT_EQ(i64, -1);
  EXPECT_EQ(sz, 42u);
  EXPECT_EQ(u32, 0xffffffffu);
  EXPECT_EQ(small, Small::kB);
  EXPECT_EQ(sgn, Signed::kNeg);
  EXPECT_EQ(str, "grid.fabric");
}

TEST(SnapshotWalker, ContainersWriteACountThenTheElements) {
  const std::vector<double> vec{1.5, -2.0};
  const std::deque<std::size_t> deq{3, 4, 5};
  const std::set<std::size_t> set{9, 2};
  const std::map<std::string, int> map{{"b", -1}, {"a", 2}};
  const std::pair<std::string, int> pair{"x", 3};
  const std::optional<double> some = 0.5;
  const std::optional<double> none;

  SnapshotWriter walked;
  walked(vec, deq, set, map, pair, some, none);
  SnapshotWriter byHand;
  byHand.putU64(2);
  byHand.putF64(1.5);
  byHand.putF64(-2.0);
  byHand.putU64(3);
  for (const std::uint64_t v : {3, 4, 5}) byHand.putU64(v);
  byHand.putU64(2);
  byHand.putU64(2);
  byHand.putU64(9);
  byHand.putU64(2);  // map entries are pair<const K, V>: key, then value
  byHand.putStr("a");
  byHand.putI64(2);
  byHand.putStr("b");
  byHand.putI64(-1);
  byHand.putStr("x");
  byHand.putI64(3);
  byHand.putBool(true);
  byHand.putF64(0.5);
  byHand.putBool(false);
  EXPECT_EQ(walked.words(), byHand.words());
}

TEST(SnapshotWalker, DecodeReplacesContainerContents) {
  const std::vector<double> vec{1.5, -2.0};
  const std::deque<std::size_t> deq{3, 4, 5};
  const std::set<std::size_t> set{9, 2};
  const std::map<std::string, std::vector<int>> map{{"a", {1}}, {"b", {}}};
  const std::optional<double> none;
  SnapshotWriter w;
  w(vec, deq, set, map, none);

  // Every target starts non-empty; decode must replace, never append.
  std::vector<double> vec2{7.0, 8.0, 9.0};
  std::deque<std::size_t> deq2{1};
  std::set<std::size_t> set2{1, 9, 100};
  std::map<std::string, std::vector<int>> map2{{"a", {5, 6}}, {"z", {1}}};
  std::optional<double> none2 = 3.0;
  SnapshotReader r(w.words());
  r(vec2, deq2, set2, map2, none2);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(vec2, vec);
  EXPECT_EQ(deq2, deq);
  EXPECT_EQ(set2, set);
  EXPECT_EQ(map2, map);
  EXPECT_FALSE(none2.has_value());
}

TEST(SnapshotWalker, RngMidStreamWithASpareRoundTrips) {
  Rng rng(1234);
  (void)rng.next();
  (void)rng.normal();  // Box-Muller leaves the second variate as the spare
  const RngState st = rng.state();
  ASSERT_TRUE(st.haveSpare);

  SnapshotWriter walked;
  walked(rng);
  SnapshotWriter byHand;
  for (const std::uint64_t s : st.s) byHand.putU64(s);
  byHand.putBool(st.haveSpare);
  byHand.putF64(st.spare);
  EXPECT_EQ(walked.words(), byHand.words());

  Rng back(999);
  SnapshotReader r(walked.words());
  r(back);
  EXPECT_EQ(back.normal(), rng.normal());  // the spare itself
  for (int i = 0; i < 8; ++i) EXPECT_EQ(back.next(), rng.next());
}

/// A record with a field list, nesting another record and a component that
/// only has its own encodeState/decodeState.
struct Leg {
  std::string app;
  std::vector<std::size_t> nodes;
  int derived = 0;  // not in the field list

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.app, s.nodes);
  }
};

struct Trip {
  std::vector<Leg> legs;
  Small kind = Small::kA;

  template <class Self, class Ar>
  static void snapshotIo(Self& s, Ar& a) {
    a(s.legs, s.kind);
  }
};

TEST(SnapshotWalker, FieldListsNestAndDelegateToCodecs) {
  Trip trip;
  trip.legs = {{"qr", {1, 2}, 5}, {"eman", {}, 6}};
  trip.kind = Small::kB;
  SnapshotWriter walked;
  walked(trip, std::map<std::size_t, Trip>{{4, trip}});

  SnapshotWriter byHand;
  const auto putTrip = [&byHand] {
    byHand.putU64(2);
    byHand.putStr("qr");
    byHand.putU64(2);
    byHand.putU64(1);
    byHand.putU64(2);
    byHand.putStr("eman");
    byHand.putU64(0);
    byHand.putU64(7);
  };
  putTrip();
  byHand.putU64(1);
  byHand.putU64(4);
  putTrip();
  EXPECT_EQ(walked.words(), byHand.words());

  Trip back;
  back.legs = {{"stale", {9}, 0}};
  std::map<std::size_t, Trip> byKey;
  SnapshotReader r(walked.words());
  r(back, byKey);
  EXPECT_TRUE(r.done());
  ASSERT_EQ(back.legs.size(), 2u);
  EXPECT_EQ(back.legs[0].app, "qr");
  EXPECT_EQ(back.legs[0].nodes, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(back.legs[0].derived, 0);  // default: not snapshotted
  EXPECT_EQ(back.legs[1].app, "eman");
  EXPECT_EQ(back.kind, Small::kB);
  ASSERT_EQ(byKey.count(4), 1u);
  EXPECT_EQ(byKey.at(4).legs.size(), 2u);

  // A type without a field list goes through its own codec.
  sim::Engine eng;
  reschedule::ActionJournal journal(eng);
  journal.open("qr", reschedule::ActionKind::kPreempt, {1});
  SnapshotWriter viaWalker;
  viaWalker(journal);
  SnapshotWriter direct;
  journal.encodeState(direct);
  EXPECT_EQ(viaWalker.words(), direct.words());
}

TEST(SnapshotWalker, ExpectChecksInsteadOfRestoring) {
  SnapshotWriter w;
  w.expect("unused by the writer", std::size_t{3}, std::string("qr"));
  EXPECT_EQ(w.words().size(), 2u + 3u);  // u64 + str("qr")

  SnapshotReader same(w.words());
  EXPECT_NO_THROW(same.expect("shape", std::size_t{3}, std::string("qr")));
  EXPECT_TRUE(same.done());

  SnapshotReader other(w.words());
  try {
    other.expect("shape mismatch", std::size_t{4}, std::string("qr"));
    ADD_FAILURE() << "expect() accepted a different value";
  } catch (const SnapshotError& e) {
    EXPECT_STREQ(e.what(), "shape mismatch");
  }
}

TEST(SnapshotWalker, ForgedCountsAndOutOfRangeValuesThrow) {
  // A container count larger than the words left is rejected before any
  // element is read or allocated.
  SnapshotWriter forged;
  forged.putU64(std::uint64_t{1} << 40);
  forged.putF64(1.0);
  std::vector<double> vec;
  SnapshotReader r1(forged.words());
  EXPECT_THROW(r1(vec), SnapshotError);
  std::map<std::string, int> map;
  SnapshotReader r2(forged.words());
  EXPECT_THROW(r2(map), SnapshotError);
  std::set<int> set;
  SnapshotReader r3(forged.words());
  EXPECT_THROW(r3(set), SnapshotError);

  // Integers must fit their field: no silent truncation on decode.
  SnapshotWriter wideInt;
  wideInt.putI64(std::int64_t{1} << 40);
  int narrowInt = 0;
  SnapshotReader r4(wideInt.words());
  EXPECT_THROW(r4(narrowInt), SnapshotError);
  SnapshotWriter wideEnum;
  wideEnum.putU64(300);
  Small small = Small::kA;
  SnapshotReader r5(wideEnum.words());
  EXPECT_THROW(r5(small), SnapshotError);
}

// --- Image serialize/parse. ------------------------------------------------

SnapshotImage makeImage() {
  SnapshotImage img;
  img.simTime = 123.5;
  SnapshotSection s;
  s.name = "test.alpha";
  s.version = 3;
  SnapshotWriter w;
  w.putU64(7);
  w.putStr("payload");
  s.words = w.words();
  img.addSection(std::move(s));
  SnapshotSection t;
  t.name = "test.beta";
  t.words = {1, 2, 3};
  img.addSection(std::move(t));
  return img;
}

TEST(SnapshotImage, SerializeParseRoundTrip) {
  const SnapshotImage img = makeImage();
  const auto bytes = img.serialize();
  const SnapshotImage back = SnapshotImage::parse(bytes);
  EXPECT_EQ(back.simTime, 123.5);
  ASSERT_EQ(back.sections().size(), 2u);
  const auto* alpha = back.findSection("test.alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->version, 3u);
  SnapshotReader r(alpha->words);
  EXPECT_EQ(r.getU64(), 7u);
  EXPECT_EQ(r.getStr(), "payload");
  EXPECT_EQ(back.digest(), img.digest());
}

TEST(SnapshotImage, CorruptionAnywhereIsRejected) {
  const auto bytes = makeImage().serialize();
  // Flip one bit at every byte offset: magic, header, lengths, payload, and
  // checksum corruption must all fail parse — never a silent misread.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto bad = bytes;
    bad[i] ^= 0x40;
    EXPECT_THROW(SnapshotImage::parse(bad), SnapshotError) << "offset " << i;
  }
}

TEST(SnapshotImage, TruncationIsRejected) {
  const auto bytes = makeImage().serialize();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4},
                                 bytes.size() / 2, bytes.size() - 1}) {
    auto bad = bytes;
    bad.resize(keep);
    EXPECT_THROW(SnapshotImage::parse(bad), SnapshotError) << "kept " << keep;
  }
}

/// A one-section image (section "s" holding putStr("hello")) with word
/// `index` replaced by `value` and both checksums recomputed, so parse gets
/// past them. Word layout: 0 magic, 1 format, 2 sim time, 3 section count,
/// 4 name length, 5 name, 6 version, 7 word count, 8-10 the str field
/// (tag, length, payload), 11 section checksum, 12 image checksum.
std::vector<std::uint8_t> forgedImage(std::size_t index, std::uint64_t value) {
  SnapshotImage img;
  SnapshotSection sec;
  sec.name = "s";
  SnapshotWriter w;
  w.putStr("hello");
  sec.words = w.words();
  img.addSection(sec);
  std::vector<std::uint8_t> bytes = img.serialize();
  EXPECT_EQ(bytes.size(), 13u * 8u);
  const auto word = [&bytes](std::size_t i) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + 8 * i, 8);
    return v;
  };
  const auto setWord = [&bytes](std::size_t i, std::uint64_t v) {
    std::memcpy(bytes.data() + 8 * i, &v, 8);
  };
  setWord(index, value);
  sec.words = {word(8), word(9), word(10)};
  setWord(11, sec.checksum());
  setWord(12, util::fnv1a64(bytes.data(), bytes.size() - 8));
  return bytes;
}

TEST(SnapshotImage, ForgedLengthsThrowSnapshotErrorNotBadAlloc) {
  // Unforged, the image parses and the string reads back.
  const SnapshotImage ok = SnapshotImage::parse(forgedImage(9, 5));
  SnapshotReader okReader(ok.sections()[0].words);
  EXPECT_EQ(okReader.getStr(), "hello");

  // Each length or count is checked against what is left before anything
  // is allocated from it.
  EXPECT_THROW(SnapshotImage::parse(forgedImage(3, std::uint64_t{1} << 40)),
               SnapshotError);  // section count
  EXPECT_THROW(SnapshotImage::parse(forgedImage(4, std::uint64_t{1} << 50)),
               SnapshotError);  // section name length
  EXPECT_THROW(SnapshotImage::parse(forgedImage(7, std::uint64_t{1} << 40)),
               SnapshotError);  // section word count

  // A string length inside a section whose checksum is valid.
  const SnapshotImage img =
      SnapshotImage::parse(forgedImage(9, std::uint64_t{1} << 40));
  SnapshotReader r(img.sections()[0].words);
  EXPECT_THROW(r.getStr(), SnapshotError);
}

// --- Registry semantics. ---------------------------------------------------

/// Test component: two fields, optional decode sabotage.
class Probe : public Snapshottable {
 public:
  explicit Probe(std::string section) : section_(std::move(section)) {}

  const char* snapshotSection() const override { return section_.c_str(); }
  void encodeState(SnapshotWriter& w) const override {
    w.putU64(a);
    w.putF64(b);
  }
  void decodeState(SnapshotReader& r) override {
    a = r.getU64();
    b = r.getF64();
    ++decodes;
  }

  std::string section_;
  std::uint64_t a = 0;
  double b = 0.0;
  int decodes = 0;
};

TEST(SnapshotRegistry, CaptureAndRestoreInRegistrationOrder) {
  Probe p1("probe.one");
  Probe p2("probe.two");
  p1.a = 11;
  p1.b = 0.5;
  p2.a = 22;
  p2.b = 1.5;
  SnapshotRegistry reg;
  reg.add(p1);
  reg.add(p2);
  const SnapshotImage img = reg.capture(42.0);
  EXPECT_EQ(img.simTime, 42.0);
  ASSERT_EQ(img.sections().size(), 2u);
  EXPECT_EQ(img.sections()[0].name, "probe.one");
  EXPECT_EQ(img.sections()[1].name, "probe.two");

  Probe q1("probe.one");
  Probe q2("probe.two");
  SnapshotRegistry reg2;
  reg2.add(q1);
  reg2.add(q2);
  reg2.restore(img);
  EXPECT_EQ(q1.a, 11u);
  EXPECT_EQ(q1.b, 0.5);
  EXPECT_EQ(q2.a, 22u);
  EXPECT_EQ(q2.b, 1.5);
}

TEST(SnapshotRegistry, MissingSectionFailsBeforeAnyDecode) {
  Probe p1("probe.one");
  SnapshotRegistry cap;
  cap.add(p1);
  const SnapshotImage img = cap.capture(0.0);

  Probe q1("probe.one");
  Probe q2("probe.absent");
  SnapshotRegistry reg;
  reg.add(q1);
  reg.add(q2);
  EXPECT_THROW(reg.restore(img), SnapshotError);
  // All-or-nothing: q1's section exists, but no component may decode when
  // any registered component's section is missing.
  EXPECT_EQ(q1.decodes, 0);
}

TEST(SnapshotRegistry, LeftoverWordsAreAnError) {
  Probe p("probe.one");
  SnapshotRegistry cap;
  cap.add(p);
  SnapshotImage img = cap.capture(0.0);
  // Grow the section beyond what the decoder consumes.
  SnapshotSection fat = img.sections()[0];
  SnapshotWriter w;
  w.putU64(1);
  fat.words.insert(fat.words.end(), w.words().begin(), w.words().end());
  SnapshotImage fatImg;
  fatImg.simTime = img.simTime;
  fatImg.addSection(std::move(fat));
  Probe q("probe.one");
  SnapshotRegistry reg;
  reg.add(q);
  EXPECT_THROW(reg.restore(fatImg), SnapshotError);
}

TEST(SnapshotRegistry, VersionSkewIsAVersionedError) {
  Probe p("probe.one");
  SnapshotRegistry cap;
  cap.add(p);
  SnapshotImage img = cap.capture(0.0);
  SnapshotSection old = img.sections()[0];
  old.version = 99;
  SnapshotImage oldImg;
  oldImg.addSection(std::move(old));
  Probe q("probe.one");
  SnapshotRegistry reg;
  reg.add(q);
  EXPECT_THROW(reg.restore(oldImg), SnapshotError);
}

// --- Component round-trips. ------------------------------------------------

TEST(SnapshotComponents, RngStreamPositionRoundTrips) {
  Rng rng(1234);
  (void)rng.uniform();
  (void)rng.uniform();
  const auto state = rng.state();
  Rng other(999);  // different seed, position overwritten by setState
  other.setState(state);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rng.next(), other.next()) << "draw " << i;
  }
}

TEST(SnapshotComponents, GisAndServicesRoundTripThroughImageBytes) {
  sim::Engine eng;
  grid::Grid g(eng);
  const auto tb = grid::buildQrTestbed(g);
  services::Gis gis(g);
  gis.installEverywhere(services::software::kScalapack);
  gis.setNodeUp(tb.utkNodes[0], false);
  services::Nws nws(eng, g, 10.0, 0.0, 7);
  services::Ibp ibp(g);
  ibp.setFence("qr", 4);
  autopilot::AutopilotManager pilot(eng);
  pilot.report("phase-time.qr", 1.25);
  reschedule::ActionJournal journal(eng);
  const int id = journal.open("qr", reschedule::ActionKind::kMigrate, {1, 2});
  journal.beginCommit(id);

  SnapshotRegistry reg;
  reg.add(g);
  reg.add(gis);
  reg.add(nws);
  reg.add(ibp);
  reg.add(pilot);
  reg.add(journal);
  const auto bytes = reg.capture(eng.now()).serialize();

  // Fresh control plane, restored from the parsed bytes.
  sim::Engine eng2;
  grid::Grid g2(eng2);
  const auto tb2 = grid::buildQrTestbed(g2);
  services::Gis gis2(g2);
  services::Nws nws2(eng2, g2, 10.0, 0.0, 1);
  services::Ibp ibp2(g2);
  autopilot::AutopilotManager pilot2(eng2);
  reschedule::ActionJournal journal2(eng2);
  SnapshotRegistry reg2;
  reg2.add(g2);
  reg2.add(gis2);
  reg2.add(nws2);
  reg2.add(ibp2);
  reg2.add(pilot2);
  reg2.add(journal2);
  reg2.restore(SnapshotImage::parse(bytes));

  EXPECT_FALSE(gis2.isNodeUp(tb2.utkNodes[0]));
  EXPECT_TRUE(gis2.hasSoftware(tb2.uiucNodes[0], services::software::kScalapack));
  EXPECT_EQ(ibp2.fenceEpoch("qr"), 4);
  ASSERT_EQ(pilot2.history("phase-time.qr").size(), 1u);
  EXPECT_EQ(pilot2.history("phase-time.qr")[0].value, 1.25);
  ASSERT_NE(journal2.openAction("qr"), nullptr);
  EXPECT_EQ(journal2.openAction("qr")->state,
            reschedule::ActionState::kCommitting);
  EXPECT_EQ(journal2.inFlight(), 1);

  // Identity: re-capturing the restored components yields the same bytes.
  EXPECT_EQ(reg2.capture(0.0).serialize(), bytes);
}

// --- AppManager coordinator guards. ---------------------------------------

struct ManagerFixture {
  sim::Engine eng;
  grid::Grid g{eng};
  grid::QrTestbed tb;
  services::Gis gis{g};
  services::Nws nws{eng, g, 10.0, 0.0, 7};
  services::Ibp ibp{g};
  autopilot::AutopilotManager pilot{eng};
  core::AppManager mgr{g, gis, &nws, ibp, pilot};

  ManagerFixture() { tb = grid::buildQrTestbed(g); }
};

TEST(AppManagerSnapshots, SnapshotDaemonArmsExactlyOnce) {
  ManagerFixture f;
  int captures = 0;
  const auto sink = [&captures](SnapshotImage) { ++captures; };
  EXPECT_FALSE(f.mgr.snapshotDaemonArmed());
  EXPECT_TRUE(f.mgr.armSnapshotDaemon(10.0, sink));
  EXPECT_TRUE(f.mgr.snapshotDaemonArmed());
  EXPECT_FALSE(f.mgr.armSnapshotDaemon(10.0, sink));  // arm-once
  f.eng.runUntil(35.0);
  EXPECT_EQ(captures, 3);  // t=10,20,30 — single cadence, not doubled
  EXPECT_EQ(f.mgr.snapshotsTaken(), 3u);
}

TEST(AppManagerSnapshots, SnapshotAtCapturesAtTheRequestedBoundary) {
  ManagerFixture f;
  double capturedAt = -1.0;
  f.mgr.snapshotAt(25.0, [&capturedAt](SnapshotImage img) {
    capturedAt = img.simTime;
  });
  f.eng.runUntil(30.0);
  EXPECT_EQ(capturedAt, 25.0);
}

TEST(AppManagerSnapshots, SecondRestoreThrows) {
  ManagerFixture f;
  const SnapshotImage img = f.mgr.snapshotNow();
  ManagerFixture fresh;
  fresh.mgr.restoreFrom(img);
  // Restore-twice would fork live state from the image; the guard throws.
  EXPECT_THROW(fresh.mgr.restoreFrom(img), Error);
}

TEST(AppManagerSnapshots, SandboxRestoresRepeatFreely) {
  ManagerFixture f;
  const SnapshotImage img = f.mgr.snapshotNow();
  // Sandbox engines (what-if forks) replay the same image as often as the
  // speculation budget allows — the once-guard applies to live restores
  // only, and a history of sandbox restores must not weaken it.
  ManagerFixture fork;
  fork.mgr.restoreFrom(img, AppManager::RestoreKind::kSandbox);
  fork.mgr.restoreFrom(img, AppManager::RestoreKind::kSandbox);
  fork.mgr.restoreFrom(img, AppManager::RestoreKind::kLive);
  EXPECT_THROW(fork.mgr.restoreFrom(img, AppManager::RestoreKind::kLive),
               Error);
}

TEST(AppManagerSnapshots, CompletedAppsRoundTrip) {
  ManagerFixture f;
  SnapshotWriter w;
  f.mgr.encodeState(w);
  SnapshotReader r0(w.words());
  f.mgr.decodeState(r0);  // empty manager round-trips cleanly
  EXPECT_TRUE(r0.done());
  EXPECT_FALSE(f.mgr.isCompleted("qr"));
  EXPECT_FALSE(f.mgr.hasResumeState("qr"));
}

}  // namespace
}  // namespace grads::core
