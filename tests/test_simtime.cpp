#include "util/simtime.hpp"

#include <gtest/gtest.h>

namespace pmware {
namespace {

TEST(SimTime, UnitHelpers) {
  EXPECT_EQ(seconds(5), 5);
  EXPECT_EQ(minutes(2), 120);
  EXPECT_EQ(hours(3), 10800);
  EXPECT_EQ(days(1), 86400);
  EXPECT_EQ(kSecondsPerWeek, 7 * 86400);
}

TEST(SimTime, DayOf) {
  EXPECT_EQ(day_of(0), 0);
  EXPECT_EQ(day_of(86399), 0);
  EXPECT_EQ(day_of(86400), 1);
  EXPECT_EQ(day_of(days(10) + hours(13)), 10);
}

TEST(SimTime, TimeOfDay) {
  EXPECT_EQ(time_of_day(0), 0);
  EXPECT_EQ(time_of_day(hours(9) + minutes(30)), hours(9) + minutes(30));
  EXPECT_EQ(time_of_day(days(3) + hours(23)), hours(23));
}

TEST(SimTime, WeekdayStartsMonday) {
  EXPECT_EQ(weekday_of(0), 0);                    // Monday
  EXPECT_EQ(weekday_of(days(4)), 4);              // Friday
  EXPECT_EQ(weekday_of(days(5)), 5);              // Saturday
  EXPECT_EQ(weekday_of(days(7) + hours(12)), 0);  // next Monday
}

TEST(SimTime, IsWeekend) {
  EXPECT_FALSE(is_weekend(days(0)));
  EXPECT_FALSE(is_weekend(days(4) + hours(23)));
  EXPECT_TRUE(is_weekend(days(5)));
  EXPECT_TRUE(is_weekend(days(6) + hours(23)));
  EXPECT_FALSE(is_weekend(days(7)));
}

TEST(SimTime, StartOfDay) {
  EXPECT_EQ(start_of_day(0), 0);
  EXPECT_EQ(start_of_day(2), 2 * 86400);
}

TEST(SimTime, FormatTime) {
  EXPECT_EQ(format_time(0), "d0 00:00:00");
  EXPECT_EQ(format_time(days(3) + hours(14) + minutes(5) + 9), "d3 14:05:09");
}

TEST(SimTime, FormatDuration) {
  EXPECT_EQ(format_duration(0), "00:00:00");
  EXPECT_EQ(format_duration(hours(2) + minutes(30)), "02:30:00");
  EXPECT_EQ(format_duration(days(1) + hours(2)), "1d 02:00:00");
  EXPECT_EQ(format_duration(-minutes(5)), "-00:05:00");
}

TEST(TimeWindow, RejectsInvertedWindow) {
  EXPECT_THROW(TimeWindow(10, 5), std::invalid_argument);
  EXPECT_NO_THROW(TimeWindow(5, 5));
}

TEST(TimeWindow, ContainsIsClosedOpen) {
  const TimeWindow w{10, 20};
  EXPECT_FALSE(w.contains(9));
  EXPECT_TRUE(w.contains(10));
  EXPECT_TRUE(w.contains(19));
  EXPECT_FALSE(w.contains(20));
}

TEST(TimeWindow, Length) {
  EXPECT_EQ((TimeWindow{10, 25}).length(), 15);
  EXPECT_EQ((TimeWindow{10, 10}).length(), 0);
}

struct OverlapCase {
  TimeWindow a;
  TimeWindow b;
  bool overlaps;
  SimDuration overlap_len;
};

void PrintTo(const OverlapCase& c, std::ostream* os) {
  *os << "a=" << c.a.begin << "-" << c.a.end << " b=" << c.b.begin << "-"
      << c.b.end << " overlap=" << c.overlap_len << "s";
}

class TimeWindowOverlap : public ::testing::TestWithParam<OverlapCase> {};

TEST_P(TimeWindowOverlap, OverlapSymmetry) {
  const auto& c = GetParam();
  EXPECT_EQ(c.a.overlaps(c.b), c.overlaps);
  EXPECT_EQ(c.b.overlaps(c.a), c.overlaps);
  EXPECT_EQ(c.a.overlap_length(c.b), c.overlap_len);
  EXPECT_EQ(c.b.overlap_length(c.a), c.overlap_len);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TimeWindowOverlap,
    ::testing::Values(OverlapCase{{0, 10}, {5, 15}, true, 5},
                      OverlapCase{{0, 10}, {10, 20}, false, 0},
                      OverlapCase{{0, 10}, {20, 30}, false, 0},
                      OverlapCase{{0, 30}, {10, 20}, true, 10},
                      OverlapCase{{5, 6}, {5, 6}, true, 1},
                      OverlapCase{{0, 0}, {0, 10}, false, 0}));

TEST(DailyWindow, SimpleWindow) {
  const DailyWindow w{hours(9), hours(18)};
  EXPECT_TRUE(w.contains(days(2) + hours(9)));
  EXPECT_TRUE(w.contains(days(2) + hours(17) + minutes(59)));
  EXPECT_FALSE(w.contains(days(2) + hours(18)));
  EXPECT_FALSE(w.contains(days(2) + hours(8) + minutes(59)));
}

TEST(DailyWindow, WrapsMidnight) {
  const DailyWindow w{hours(22), hours(6)};
  EXPECT_TRUE(w.contains(hours(23)));
  EXPECT_TRUE(w.contains(days(1) + hours(2)));
  EXPECT_FALSE(w.contains(hours(12)));
  EXPECT_TRUE(w.contains(days(4) + hours(5) + minutes(59)));
  EXPECT_FALSE(w.contains(days(4) + hours(6)));
}

TEST(DailyWindow, AllDayContainsEverything) {
  const DailyWindow w = DailyWindow::all_day();
  for (SimTime t : {SimTime{0}, hours(5), days(3) + hours(23), days(100)})
    EXPECT_TRUE(w.contains(t));
}

}  // namespace
}  // namespace pmware
