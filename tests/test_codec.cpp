#include "core/codec.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <span>
#include <utility>
#include <vector>

namespace pmware::core {
namespace {

using algorithms::CellSignature;
using algorithms::GpsSignature;
using algorithms::PlaceSignature;
using algorithms::WifiSignature;
using world::CellId;

CellId cell(std::uint32_t cid, world::Radio radio = world::Radio::Gsm2G) {
  return CellId{404, 10, 101, cid, radio};
}

TEST(Codec, CellIdRoundTrip) {
  const CellId original = cell(12345, world::Radio::Umts3G);
  const CellId decoded = cell_from_json(to_json(original));
  EXPECT_EQ(decoded, original);
}

TEST(Codec, CellIdSurvivesSerializedText) {
  const CellId original = cell(999);
  const Json reparsed = Json::parse(to_json(original).dump());
  EXPECT_EQ(cell_from_json(reparsed), original);
}

TEST(Codec, LatLngRoundTrip) {
  const geo::LatLng original{28.613912, 77.209021};
  const geo::LatLng decoded =
      latlng_from_json(Json::parse(to_json(original).dump()));
  EXPECT_NEAR(decoded.lat, original.lat, 1e-9);
  EXPECT_NEAR(decoded.lng, original.lng, 1e-9);
}

TEST(Codec, CellSignatureRoundTrip) {
  CellSignature sig;
  sig.cells = {cell(1), cell(2, world::Radio::Umts3G), cell(3)};
  const PlaceSignature decoded =
      signature_from_json(Json::parse(to_json(PlaceSignature(sig)).dump()));
  ASSERT_TRUE(std::holds_alternative<CellSignature>(decoded));
  EXPECT_EQ(std::get<CellSignature>(decoded), sig);
}

TEST(Codec, WifiSignatureRoundTrip) {
  WifiSignature sig;
  sig.aps = {0x001122334455ULL, 0xa0b1c2d3e4f5ULL};
  const PlaceSignature decoded =
      signature_from_json(Json::parse(to_json(PlaceSignature(sig)).dump()));
  ASSERT_TRUE(std::holds_alternative<WifiSignature>(decoded));
  EXPECT_EQ(std::get<WifiSignature>(decoded), sig);
}

TEST(Codec, GpsSignatureRoundTrip) {
  const GpsSignature sig{{28.61, 77.21}, 120.5};
  const PlaceSignature decoded =
      signature_from_json(Json::parse(to_json(PlaceSignature(sig)).dump()));
  ASSERT_TRUE(std::holds_alternative<GpsSignature>(decoded));
  EXPECT_EQ(std::get<GpsSignature>(decoded), sig);
}

TEST(Codec, UnknownSignatureKindThrows) {
  Json j = Json::object();
  j.set("kind", "sonar");
  EXPECT_THROW(signature_from_json(j), JsonError);
}

TEST(Codec, PlaceRecordRoundTrip) {
  PlaceRecord record;
  record.uid = 42;
  WifiSignature sig;
  sig.aps = {1, 2, 3};
  record.signature = sig;
  record.label = "workplace";
  record.location = geo::LatLng{28.6, 77.2};
  record.granularity = Granularity::Room;
  record.visit_count = 17;
  record.total_dwell = hours(40);

  const PlaceRecord decoded =
      place_record_from_json(Json::parse(to_json(record).dump()));
  EXPECT_EQ(decoded.uid, record.uid);
  EXPECT_EQ(std::get<WifiSignature>(decoded.signature), sig);
  EXPECT_EQ(decoded.label, "workplace");
  ASSERT_TRUE(decoded.location.has_value());
  EXPECT_NEAR(decoded.location->lat, 28.6, 1e-9);
  EXPECT_EQ(decoded.granularity, Granularity::Room);
  EXPECT_EQ(decoded.visit_count, 17u);
  EXPECT_EQ(decoded.total_dwell, hours(40));
}

TEST(Codec, PlaceRecordWithoutLocation) {
  PlaceRecord record;
  record.uid = 1;
  record.signature = GpsSignature{{28.0, 77.0}, 75};
  const PlaceRecord decoded = place_record_from_json(to_json(record));
  EXPECT_FALSE(decoded.location.has_value());
  EXPECT_EQ(decoded.label, "");
}

TEST(Codec, MobilityProfileRoundTrip) {
  MobilityProfile profile;
  profile.user = 3;
  profile.day = 5;
  profile.places = {{10, hours(8), hours(12)}, {11, hours(13), hours(20)}};
  profile.routes = {{100, hours(12), hours(13)}};
  profile.encounters = {{7, 10, hours(9), hours(10)}};

  const MobilityProfile decoded =
      profile_from_json(Json::parse(to_json(profile).dump()));
  EXPECT_EQ(decoded.user, 3u);
  EXPECT_EQ(decoded.day, 5);
  ASSERT_EQ(decoded.places.size(), 2u);
  EXPECT_EQ(decoded.places[0].place, 10u);
  EXPECT_EQ(decoded.places[0].arrival, hours(8));
  EXPECT_EQ(decoded.places[1].departure, hours(20));
  ASSERT_EQ(decoded.routes.size(), 1u);
  EXPECT_EQ(decoded.routes[0].route_uid, 100u);
  ASSERT_EQ(decoded.encounters.size(), 1u);
  EXPECT_EQ(decoded.encounters[0].contact, 7u);
  EXPECT_EQ(decoded.encounters[0].place, 10u);
}

TEST(Codec, ProfileUploadBodyLeavesTheUserToThePath) {
  MobilityProfile profile;
  profile.user = 3;
  profile.day = 5;
  profile.places = {{10, hours(8), hours(12)}};
  const Json body = profile_upload_to_json(profile);
  // The PUT path names the user; a registration-order id in the body would
  // feed the cloud's fault roll (which hashes body bytes).
  EXPECT_FALSE(body.contains("user"));
  Json full = body;
  full.set("user", 3);
  EXPECT_EQ(full, to_json(profile));
  const MobilityProfile decoded = profile_from_json(body);
  EXPECT_EQ(decoded.user, 0u);
  EXPECT_EQ(decoded.day, 5);
  ASSERT_EQ(decoded.places.size(), 1u);
  EXPECT_EQ(decoded.places[0].place, 10u);
}

TEST(Codec, ProfileDigestCoversExactlyTheUploadBody) {
  MobilityProfile base;
  base.user = 3;
  base.day = 5;
  base.places = {{10, hours(8), hours(12)}};
  base.routes = {{100, hours(12), hours(13)}};
  base.encounters = {{7, 10, hours(9), hours(10)}};
  base.activity = {hours(20), hours(1), hours(2)};

  // Every field the PUT body emits moves the digest.
  using Edit = void (*)(MobilityProfile&);
  const Edit edits[] = {
      [](MobilityProfile& p) { p.day = 6; },
      [](MobilityProfile& p) { p.places[0].place = 11; },
      [](MobilityProfile& p) { p.places[0].arrival += 1; },
      [](MobilityProfile& p) { p.places[0].departure += 1; },
      [](MobilityProfile& p) { p.places.push_back(p.places[0]); },
      [](MobilityProfile& p) { p.routes[0].route_uid = 101; },
      [](MobilityProfile& p) { p.routes[0].start += 1; },
      [](MobilityProfile& p) { p.routes[0].end += 1; },
      [](MobilityProfile& p) { p.routes.clear(); },
      [](MobilityProfile& p) { p.encounters[0].contact = 8; },
      [](MobilityProfile& p) { p.encounters[0].place = 11; },
      [](MobilityProfile& p) { p.encounters[0].start += 1; },
      [](MobilityProfile& p) { p.encounters[0].end += 1; },
      [](MobilityProfile& p) { p.activity.still += 1; },
      [](MobilityProfile& p) { p.activity.walking += 1; },
      [](MobilityProfile& p) { p.activity.vehicle += 1; },
      [](MobilityProfile& p) { p.activity = {}; },
  };
  for (std::size_t i = 0; i < std::size(edits); ++i) {
    MobilityProfile edited = base;
    edits[i](edited);
    ASSERT_NE(profile_upload_to_json(edited), profile_upload_to_json(base))
        << "edit " << i;
    EXPECT_NE(profile_digest(edited), profile_digest(base)) << "edit " << i;
  }

  // The user rides the request path, not the body, so it is not digested.
  MobilityProfile other_user = base;
  other_user.user = 4;
  EXPECT_EQ(profile_digest(other_user), profile_digest(base));

  // An empty activity (nothing tracked) is left out of the body, and of the
  // digest the same way, whatever its fields hold.
  MobilityProfile no_activity = base;
  no_activity.activity = {};
  MobilityProfile cancelled = base;
  cancelled.activity = {hours(1), -hours(1), 0};
  ASSERT_TRUE(cancelled.activity.empty());
  EXPECT_FALSE(profile_upload_to_json(cancelled).contains("activity"));
  EXPECT_EQ(profile_upload_to_json(cancelled),
            profile_upload_to_json(no_activity));
  EXPECT_EQ(profile_digest(cancelled), profile_digest(no_activity));
}

TEST(Codec, PlaceUploadBodyDropsOnlyTheCachedLocation) {
  PlaceRecord record;
  record.uid = 4;
  record.signature = GpsSignature{{28.0, 77.0}, 75};
  record.label = "home";
  record.location = geo::LatLng{28.0, 77.0};
  const Json body = place_upload_to_json(record);
  EXPECT_FALSE(body.contains("location"));
  PlaceRecord unlocated = record;
  unlocated.location.reset();
  EXPECT_EQ(body, to_json(unlocated));
}

TEST(Codec, EmptyProfileRoundTrip) {
  MobilityProfile profile;
  profile.user = 1;
  profile.day = 0;
  const MobilityProfile decoded = profile_from_json(to_json(profile));
  EXPECT_TRUE(decoded.empty());
}

TEST(Codec, ObservationAndGcaResultRoundTrip) {
  const algorithms::CellObservation obs{hours(2), cell(7)};
  const auto decoded_obs =
      observation_from_json(Json::parse(to_json(obs).dump()));
  EXPECT_EQ(decoded_obs.t, obs.t);
  EXPECT_EQ(decoded_obs.cell, obs.cell);

  algorithms::GcaResult result;
  result.places.push_back({CellSignature{{cell(1), cell(2)}}, hours(3)});
  result.visits.push_back({0, TimeWindow{hours(1), hours(4)}});
  const auto decoded =
      gca_result_from_json(Json::parse(to_json(result).dump()));
  ASSERT_EQ(decoded.places.size(), 1u);
  EXPECT_EQ(decoded.places[0].signature.cells.size(), 2u);
  EXPECT_EQ(decoded.places[0].total_dwell, hours(3));
  ASSERT_EQ(decoded.visits.size(), 1u);
  EXPECT_EQ(decoded.visits[0].window, (TimeWindow{hours(1), hours(4)}));
  EXPECT_EQ(decoded.cell_to_place.at(cell(2)), 0u);
}

TEST(Codec, RouteAndRouteEventRoundTrip) {
  algorithms::RouteObservation route;
  route.from_place = 3;
  route.to_place = 4;
  route.window = TimeWindow{hours(8), hours(9)};
  route.cells = {{hours(8), hours(8) + 60}, {cell(1), cell(2)}};
  route.gps = {{hours(8)}, {{28.6, 77.2}}};
  const auto decoded = route_from_json(Json::parse(to_json(route).dump()));
  EXPECT_EQ(decoded.from_place, 3u);
  EXPECT_EQ(decoded.to_place, 4u);
  EXPECT_EQ(decoded.window, route.window);
  EXPECT_EQ(decoded.cells.times, route.cells.times);
  EXPECT_EQ(decoded.cells.cells, route.cells.cells);
  ASSERT_EQ(decoded.gps.points.size(), 1u);
  EXPECT_EQ(decoded.gps.times[0], hours(8));
  // A journey without samples omits both arrays.
  EXPECT_FALSE(to_json(algorithms::RouteObservation{}).contains("cells"));

  const RouteEvent event{5, 3, 4, TimeWindow{hours(8), hours(9)}, true};
  const RouteEvent back =
      route_event_from_json(Json::parse(to_json(event).dump()));
  EXPECT_EQ(back.route_uid, 5u);
  EXPECT_EQ(back.to, 4u);
  EXPECT_EQ(back.window, event.window);
  EXPECT_TRUE(back.high_accuracy);
}

TEST(Codec, EncounterFieldsAreRequired) {
  const EncounterEntry entry{7, 10, hours(9), hours(10)};
  const EncounterEntry back = encounter_from_json(to_json(entry));
  EXPECT_EQ(back.contact, 7u);
  EXPECT_EQ(back.end, hours(10));
  const Json missing = Json::parse(R"({"contact":7,"start":0,"end":1})");
  EXPECT_THROW(encounter_from_json(missing), JsonError);
}

TEST(Codec, ActivityDigestHexAndMovementDigestChain) {
  const ActivitySummary activity{hours(20), hours(1), hours(2)};
  EXPECT_EQ(activity_from_json(to_json(activity)), activity);
  EXPECT_EQ(activity_from_json(Json::object()), ActivitySummary{});

  EXPECT_EQ(digest_to_hex(0xcbf29ce484222325ull), "cbf29ce484222325");
  EXPECT_EQ(digest_to_hex(1), "0000000000000001");
  EXPECT_EQ(digest_from_hex(digest_to_hex(~0ull)), ~0ull);

  // Extending a prefix digest equals digesting the whole stream.
  const std::vector<algorithms::CellObservation> log = {
      {0, cell(1)}, {60, cell(2)}, {120, cell(3)}};
  const std::span<const algorithms::CellObservation> all(log);
  EXPECT_EQ(movement_digest(all.subspan(1), movement_digest(all.first(1))),
            movement_digest(all));
}

TEST(Codec, MovementDigestSeparatesCellsWithCollidingKeys) {
  // key() is lossy over the ranges the wire accepts: cid >= 2^25 spills
  // into lac's bits, and mcc << 52 drops mcc's high bits. The movement
  // digest folds every bit of the cell, so these pairs must not collide.
  const std::pair<CellId, CellId> colliding[] = {
      {CellId{1, 1, 1, 1u << 25}, CellId{1, 1, 1, 0}},
      {CellId{4500, 10, 101, 7}, CellId{404, 10, 101, 7}},
  };
  for (const auto& [a, b] : colliding) {
    ASSERT_NE(a, b);
    ASSERT_EQ(a.key(), b.key());
    const algorithms::CellObservation obs_a{60, a};
    const algorithms::CellObservation obs_b{60, b};
    EXPECT_NE(movement_digest({&obs_a, 1}), movement_digest({&obs_b, 1}))
        << a.to_string() << " vs " << b.to_string();
  }
}

TEST(Codec, CellFieldsOutOfRangeThrow) {
  const auto with = [](const char* field, double value) {
    Json j = to_json(cell(1));
    j.set(field, value);
    return j;
  };
  for (const char* field : {"mcc", "mnc", "lac"}) {
    EXPECT_THROW(cell_from_json(with(field, -1)), JsonError) << field;
    EXPECT_THROW(cell_from_json(with(field, 65536)), JsonError) << field;
    EXPECT_NO_THROW(cell_from_json(with(field, 65535))) << field;
  }
  EXPECT_THROW(cell_from_json(with("cid", -1)), JsonError);
  EXPECT_THROW(cell_from_json(with("cid", 0x1p32)), JsonError);
  EXPECT_THROW(cell_from_json(with("cid", 1e300)), JsonError);
  EXPECT_EQ(cell_from_json(with("cid", 0x1p32 - 1)).cid, 0xffffffffu);
}

// --- Columnar observation runs (the GCA offload body) ---------------------

using ObsRun = std::vector<algorithms::CellObservation>;

/// Encodes, serializes, re-parses and decodes `run`; the result must equal
/// it observation for observation, and so must its movement digest.
void expect_round_trip(std::span<const algorithms::CellObservation> run) {
  const ObsRun decoded =
      observations_from_json(Json::parse(observations_to_json(run).dump()));
  ASSERT_EQ(decoded.size(), run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(decoded[i].t, run[i].t) << "observation " << i;
    EXPECT_EQ(decoded[i].cell, run[i].cell) << "observation " << i;
  }
  EXPECT_EQ(movement_digest(decoded), movement_digest(run));
}

TEST(CodecColumns, EmptyRun) {
  const Json j = observations_to_json({});
  EXPECT_EQ(j.dump(), R"({"c":[],"cells":[],"t":[]})");
  expect_round_trip({});
}

TEST(CodecColumns, SingleObservation) {
  const ObsRun run = {{hours(5), cell(7)}};
  const Json j = observations_to_json(run);
  EXPECT_EQ(j.at("t")[0].as_int(), hours(5));  // first delta is from 0
  ASSERT_EQ(j.at("cells").size(), 1u);
  EXPECT_EQ(cell_from_json(j.at("cells")[0]), cell(7));
  EXPECT_EQ(j.at("c")[0].as_int(), 0);
  expect_round_trip(run);
}

TEST(CodecColumns, AlternatingCellsShareTwoDictionaryEntries) {
  ObsRun run;
  for (int i = 0; i < 100; ++i)
    run.push_back({hours(1) + i * 60, cell(i % 2 == 0 ? 10 : 11)});
  const Json j = observations_to_json(run);
  EXPECT_EQ(j.at("cells").size(), 2u);
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(j.at("c")[i].as_int(), static_cast<std::int64_t>(i % 2));
    if (i > 0) {
      EXPECT_EQ(j.at("t")[i].as_int(), 60);
    }
  }
  expect_round_trip(run);
}

TEST(CodecColumns, CellsDifferingOnlyInRadioStayDistinct) {
  const ObsRun run = {{0, cell(5, world::Radio::Gsm2G)},
                   {60, cell(5, world::Radio::Umts3G)},
                   {120, cell(5, world::Radio::Gsm2G)}};
  EXPECT_EQ(observations_to_json(run).at("cells").size(), 2u);
  expect_round_trip(run);
}

TEST(CodecColumns, CellsWithCollidingKeysStayDistinct) {
  // cid >= 2^25 spills into lac's bits of key(): these two cells pack to
  // the same key, so only a full-CellId dictionary keeps them apart.
  const CellId spill{404, 10, 100, 1u << 25, world::Radio::Gsm2G};
  const CellId next_lac{404, 10, 101, 0, world::Radio::Gsm2G};
  ASSERT_NE(spill, next_lac);
  ASSERT_EQ(spill.key(), next_lac.key());
  const ObsRun run = {{0, spill}, {60, next_lac}, {120, spill}};
  const Json j = observations_to_json(run);
  EXPECT_EQ(j.at("cells").size(), 2u);
  expect_round_trip(run);
}

TEST(CodecColumns, TimesNearTwoToTheFortyAreExact) {
  const SimTime base = (SimTime{1} << 40) - 90;
  ObsRun run;
  for (int i = 0; i < 5; ++i) run.push_back({base + i * 61, cell(1 + i % 3)});
  expect_round_trip(run);
}

TEST(CodecColumns, SuffixSubspanStartsItsDeltasFromZero) {
  ObsRun run;
  for (int i = 0; i < 2000; ++i)
    run.push_back({days(9) + i * 60, cell(static_cast<std::uint32_t>(i / 50))});
  const std::span<const algorithms::CellObservation> suffix =
      std::span<const algorithms::CellObservation>(run).subspan(1500);
  const Json j = observations_to_json(suffix);
  EXPECT_EQ(j.at("t")[0].as_int(), days(9) + 1500 * 60);
  EXPECT_EQ(cell_from_json(j.at("cells")[0]), cell(30));
  expect_round_trip(suffix);
}

TEST(CodecColumns, DecoderRejectsInconsistentColumns) {
  const ObsRun run = {{0, cell(1)}, {60, cell(2)}};
  const Json good = observations_to_json(run);
  const auto replaced = [&](const char* column, Json value) {
    Json j = good;
    j.set(column, std::move(value));
    return j;
  };
  EXPECT_THROW(observations_from_json(replaced("c", Json::Array{0})),
               JsonError);
  EXPECT_THROW(observations_from_json(replaced("c", Json::Array{0, 2})),
               JsonError);
  EXPECT_THROW(observations_from_json(replaced("c", Json::Array{0, -1})),
               JsonError);
  EXPECT_THROW(observations_from_json(replaced("cells", Json::object())),
               JsonError);
  EXPECT_THROW(observations_from_json(replaced(
                   "t", Json::Array{Json(0x1p62), Json(0x1p62)})),
               JsonError);  // 2^63 overflows SimTime
  Json::Object missing = good.as_object();
  missing.erase("t");
  EXPECT_THROW(observations_from_json(Json(std::move(missing))), JsonError);
}

TEST(CodecColumns, DayOfObservationsIsCompact) {
  // One participant-day: 1440 minute samples that dwell, oscillate and
  // move over 30 cells.
  std::vector<CellId> cells;
  for (std::uint16_t k = 0; k < 30; ++k)
    cells.push_back(CellId{404, 10, static_cast<std::uint16_t>(31000 + k),
                           40000u + 37u * k,
                           k % 3 == 0 ? world::Radio::Umts3G
                                      : world::Radio::Gsm2G});
  ObsRun day;
  for (int i = 0; i < 1440; ++i)
    day.push_back({days(3) + i * 60,
                   cells[static_cast<std::size_t>((i / 48 + i % 2) % 30)]});
  const std::size_t columnar = observations_to_json(day).dump().size();
  EXPECT_LE(columnar, 12u * day.size());
  // The one-object-per-observation shape it replaced, for scale (~75/obs).
  Json rows = Json::array();
  for (const auto& obs : day) rows.push_back(to_json(obs));
  EXPECT_GT(rows.dump().size(), 5 * columnar);
  expect_round_trip(day);
}

TEST(Codec, GranularityNames) {
  EXPECT_STREQ(to_string(Granularity::Area), "area");
  EXPECT_STREQ(to_string(Granularity::Building), "building");
  EXPECT_STREQ(to_string(Granularity::Room), "room");
}

}  // namespace
}  // namespace pmware::core

namespace pmware::algorithms {

// Names the sweep's cases by size (gtest's variant printer supplies the
// kind); its default would dump the bytes, pointers and padding included.
void PrintTo(const CellSignature& sig, std::ostream* os) {
  *os << "cells n=" << sig.cells.size();
}
void PrintTo(const WifiSignature& sig, std::ostream* os) {
  *os << "aps n=" << sig.aps.size();
}
void PrintTo(const GpsSignature& sig, std::ostream* os) {
  *os << "radius=" << sig.radius_m << "m";
}

}  // namespace pmware::algorithms

namespace pmware::core {
namespace {

class SignatureKindSweep
    : public ::testing::TestWithParam<algorithms::PlaceSignature> {};

TEST_P(SignatureKindSweep, RoundTripPreservesKindAndEquality) {
  const PlaceSignature original = GetParam();
  const PlaceSignature decoded =
      signature_from_json(Json::parse(to_json(original).dump()));
  EXPECT_EQ(decoded.index(), original.index());
  EXPECT_TRUE(algorithms::signatures_match(original, decoded, 0.99) ||
              std::holds_alternative<GpsSignature>(original));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SignatureKindSweep,
    ::testing::Values(PlaceSignature(CellSignature{{cell(1), cell(2)}}),
                      PlaceSignature(WifiSignature{{11, 22, 33}}),
                      PlaceSignature(GpsSignature{{28.61, 77.21}, 90})));

}  // namespace
}  // namespace pmware::core
