#include "core/persistence.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

namespace pmware::core {
namespace {

using algorithms::CellObservation;
using world::CellId;

CellId cell(std::uint32_t cid) {
  return CellId{404, 10, 1, cid, world::Radio::Gsm2G};
}

TEST(Persistence, GsmLogRoundTrip) {
  std::vector<CellObservation> log;
  for (int i = 0; i < 50; ++i) log.push_back({i * 60, cell(100 + i % 3)});
  std::stringstream stream;
  write_gsm_log(stream, log);
  const auto loaded = read_gsm_log(stream);
  ASSERT_EQ(loaded.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(loaded[i].t, log[i].t);
    EXPECT_EQ(loaded[i].cell, log[i].cell);
  }
}

TEST(Persistence, GsmLogIsOneJsonPerLine) {
  // One columnar line per write, however many observations it holds; an
  // empty write adds no line.
  std::vector<CellObservation> log{{0, cell(1)}, {60, cell(2)}};
  std::stringstream stream;
  write_gsm_log(stream, log);
  write_gsm_log(stream, {});
  write_gsm_log(stream, log);
  std::string line;
  int lines = 0;
  while (std::getline(stream, line)) {
    ++lines;
    EXPECT_NO_THROW(Json::parse(line));
  }
  EXPECT_EQ(lines, 2);
}

TEST(Persistence, GsmLogTornSecondWriteKeepsTheFirst) {
  const std::vector<CellObservation> first{{0, cell(1)}, {60, cell(2)}};
  const std::vector<CellObservation> second{{120, cell(3)}, {180, cell(4)}};
  std::stringstream whole;
  write_gsm_log(whole, first);
  const std::size_t first_bytes = whole.str().size();
  write_gsm_log(whole, second);
  const std::string bytes = whole.str();
  // Every cut inside the second line heals to exactly the first write's
  // observations. (A cut of the newline alone leaves a complete line, which
  // parses and is kept, as any JSONL reader would.)
  for (std::size_t cut = first_bytes; cut + 1 < bytes.size(); ++cut) {
    std::istringstream in(bytes.substr(0, cut));
    const auto loaded = read_gsm_log(in);
    ASSERT_EQ(loaded.size(), first.size()) << "cut at byte " << cut;
    EXPECT_EQ(loaded[1].t, 60) << "cut at byte " << cut;
    EXPECT_EQ(loaded[1].cell, cell(2)) << "cut at byte " << cut;
  }
}

TEST(Persistence, GsmLogDayFitsInTwelveBytesPerObservation) {
  // A participant-day: one observation a minute over 30 distinct cells.
  std::vector<CellObservation> day;
  for (int i = 0; i < 1440; ++i)
    day.push_back({days(3) + i * 60, cell(4000 + (i / 7) % 30)});
  std::stringstream stream;
  write_gsm_log(stream, day);
  EXPECT_LE(stream.str().size(), 12u * day.size());
  EXPECT_EQ(read_gsm_log(stream).size(), day.size());
}

TEST(Persistence, VisitLogRoundTrip) {
  std::vector<LoggedVisit> log{{1, TimeWindow{0, hours(8)}},
                               {2, TimeWindow{hours(9), hours(17)}}};
  std::stringstream stream;
  write_visit_log(stream, log);
  const auto loaded = read_visit_log(stream);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].uid, 1u);
  EXPECT_EQ(loaded[1].window, (TimeWindow{hours(9), hours(17)}));
}

TEST(Persistence, PlaceRecordsRoundTrip) {
  PlaceStore store;
  const auto [uid1, c1] =
      store.intern(algorithms::WifiSignature{{1, 2}}, Granularity::Building);
  store.set_label(uid1, "home");
  store.record_visit(uid1, hours(8));
  const auto [uid2, c2] = store.intern(
      algorithms::CellSignature{{cell(1), cell(2)}}, Granularity::Building);
  (void)c1;
  (void)c2;

  std::stringstream stream;
  write_place_records(stream, store);
  const auto loaded = read_place_records(stream);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].uid, uid1);
  EXPECT_EQ(loaded[0].label, "home");
  EXPECT_EQ(loaded[0].visit_count, 1u);
  EXPECT_EQ(loaded[1].uid, uid2);
  EXPECT_TRUE(std::holds_alternative<algorithms::CellSignature>(
      loaded[1].signature));
}

TEST(Persistence, ProfilesRoundTrip) {
  std::vector<MobilityProfile> profiles(2);
  profiles[0].user = 1;
  profiles[0].day = 0;
  profiles[0].places = {{5, hours(9), hours(17)}};
  profiles[1].user = 1;
  profiles[1].day = 1;
  profiles[1].routes = {{3, hours(8), hours(9)}};
  std::stringstream stream;
  write_profiles(stream, profiles);
  const auto loaded = read_profiles(stream);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].places.size(), 1u);
  EXPECT_EQ(loaded[1].routes.size(), 1u);
  EXPECT_EQ(loaded[1].day, 1);
}

TEST(Persistence, EmptyStreamsYieldEmptyVectors) {
  std::stringstream empty;
  EXPECT_TRUE(read_gsm_log(empty).empty());
  std::stringstream empty2;
  EXPECT_TRUE(read_visit_log(empty2).empty());
  std::stringstream empty3;
  EXPECT_TRUE(read_profiles(empty3).empty());
}

TEST(Persistence, BlankLinesAreSkipped) {
  std::stringstream stream;
  stream << "\n"
         << R"({"t":[60],"cells":[{"mcc":404,"mnc":10,"lac":1,"cid":9,"radio":"2g"}],"c":[0]})"
         << "\n\n";
  const auto log = read_gsm_log(stream);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].cell.cid, 9u);
}

TEST(Persistence, MalformedLineReportsLineNumber) {
  std::stringstream stream;
  stream << R"({"t":[0],"cells":[{"mcc":404,"mnc":10,"lac":1,"cid":9,"radio":"2g"}],"c":[0]})"
         << "\n"
         << "{not json}\n";
  try {
    read_gsm_log(stream);
    FAIL() << "expected PersistenceError";
  } catch (const PersistenceError& error) {
    EXPECT_EQ(error.line(), 2u);
  }
}

TEST(Persistence, MissingFieldReportsLineNumber) {
  std::stringstream stream;
  stream << R"({"t": 0})" << "\n";
  EXPECT_THROW(read_gsm_log(stream), PersistenceError);
}

TEST(Persistence, AppendedLogsConcatenate) {
  // Append-friendly format: writing twice and reading once yields the union,
  // in order. Each write has its own cell dictionary and its own time base:
  // the second line's first delta is its absolute time, and its table starts
  // afresh with the cell that write saw first.
  const std::vector<CellObservation> first{
      {hours(1), cell(1)}, {hours(1) + 60, cell(2)}, {hours(1) + 120, cell(1)}};
  const std::vector<CellObservation> second{{hours(5), cell(3)},
                                            {hours(5) + 60, cell(1)}};
  std::stringstream stream;
  write_gsm_log(stream, first);
  write_gsm_log(stream, second);

  std::string line1, line2;
  std::istringstream lines(stream.str());
  ASSERT_TRUE(std::getline(lines, line1));
  ASSERT_TRUE(std::getline(lines, line2));
  const Json j1 = Json::parse(line1);
  const Json j2 = Json::parse(line2);
  EXPECT_EQ(j1.at("cells").size(), 2u);
  EXPECT_EQ(j2.at("cells").size(), 2u);
  EXPECT_EQ(j1.at("t")[0].as_int(), hours(1));
  EXPECT_EQ(j2.at("t")[0].as_int(), hours(5));
  EXPECT_EQ(j2.at("cells")[0].at("cid").as_int(), 3);

  const auto loaded = read_gsm_log(stream);
  ASSERT_EQ(loaded.size(), first.size() + second.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const CellObservation& want =
        i < first.size() ? first[i] : second[i - first.size()];
    EXPECT_EQ(loaded[i].t, want.t) << "observation " << i;
    EXPECT_EQ(loaded[i].cell, want.cell) << "observation " << i;
  }
}

// --- Corruption fuzzing over all four JSONL products. The contract under
// attack: a truncation is always a torn tail (the reader heals it and
// returns the intact prefix, never throws), while an interior bit flip
// either still parses, or throws PersistenceError with a line number —
// never anything else, never a crash or hang.

/// A representative serialized stream per product, plus a replayable reader.
struct FuzzProduct {
  const char* name;
  std::string bytes;
  std::function<std::size_t(std::istream&)> read;  ///< returns record count
};

std::vector<FuzzProduct> fuzz_products() {
  std::vector<FuzzProduct> products;
  {
    std::vector<CellObservation> log;
    for (int i = 0; i < 12; ++i) log.push_back({i * 60, cell(100 + i % 3)});
    std::stringstream s;
    write_gsm_log(s, log);
    products.push_back({"gsm_log", s.str(), [](std::istream& in) {
                          return read_gsm_log(in).size();
                        }});
  }
  {
    std::vector<LoggedVisit> log;
    for (int i = 0; i < 8; ++i)
      log.push_back({static_cast<PlaceUid>(i + 1),
                     TimeWindow{hours(i), hours(i + 1)}});
    std::stringstream s;
    write_visit_log(s, log);
    products.push_back({"visit_log", s.str(), [](std::istream& in) {
                          return read_visit_log(in).size();
                        }});
  }
  {
    PlaceStore store;
    const auto [uid1, c1] =
        store.intern(algorithms::WifiSignature{{1, 2}}, Granularity::Building);
    store.set_label(uid1, "home");
    const auto [uid2, c2] = store.intern(
        algorithms::CellSignature{{cell(1), cell(2)}}, Granularity::Area);
    (void)c1;
    (void)c2;
    std::stringstream s;
    write_place_records(s, store);
    products.push_back({"place_records", s.str(), [](std::istream& in) {
                          return read_place_records(in).size();
                        }});
  }
  {
    std::vector<MobilityProfile> profiles(3);
    for (int d = 0; d < 3; ++d) {
      profiles[d].user = 1;
      profiles[d].day = d;
      profiles[d].places = {{5, hours(9), hours(17)}};
    }
    std::stringstream s;
    write_profiles(s, profiles);
    products.push_back({"profiles", s.str(), [](std::istream& in) {
                          return read_profiles(in).size();
                        }});
  }
  return products;
}

TEST(Persistence, EveryTruncationHealsAsTornTail) {
  for (const auto& product : fuzz_products()) {
    SCOPED_TRACE(product.name);
    std::istringstream whole(product.bytes);
    const std::size_t full_count = product.read(whole);
    ASSERT_GT(full_count, 0u);
    for (std::size_t cut = 0; cut < product.bytes.size(); ++cut) {
      std::istringstream in(product.bytes.substr(0, cut));
      std::size_t count = ~std::size_t{0};
      EXPECT_NO_THROW(count = product.read(in)) << "cut at byte " << cut;
      EXPECT_LT(count, full_count + 1) << "cut at byte " << cut;
    }
  }
}

TEST(Persistence, BitFlipsEitherParseOrThrowPersistenceError) {
  for (const auto& product : fuzz_products()) {
    SCOPED_TRACE(product.name);
    for (std::size_t pos = 0; pos < product.bytes.size(); ++pos) {
      for (const unsigned char mask : {0x01, 0x20, 0x80}) {
        std::string corrupt = product.bytes;
        corrupt[pos] = static_cast<char>(corrupt[pos] ^ mask);
        std::istringstream in(corrupt);
        try {
          const std::size_t count = product.read(in);
          EXPECT_LE(count, product.bytes.size());  // sane, no wild growth
        } catch (const PersistenceError& error) {
          EXPECT_GE(error.line(), 1u);  // detected, with a line number
        }
        // Any other exception type escapes and fails the test.
      }
    }
  }
}

}  // namespace
}  // namespace pmware::core
