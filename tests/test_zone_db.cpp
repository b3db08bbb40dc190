#include "timezone/zone_db.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

namespace tzgeo::tz {
namespace {

TEST(ZoneDb, UnknownZoneThrows) { EXPECT_THROW((void)zone("Mars/Olympus"), std::out_of_range); }

TEST(ZoneDb, HasZone) {
  EXPECT_TRUE(has_zone("Europe/Berlin"));
  EXPECT_FALSE(has_zone("Europe/Atlantis"));
}

TEST(ZoneDb, NamesAreSortedAndUnique) {
  const auto names = zone_names();
  ASSERT_GT(names.size(), 30u);
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
}

TEST(ZoneDb, FixedZonesPresentForAllOffsets) {
  for (std::int32_t h = -11; h <= 12; ++h) {
    const TimeZone& z = zone(utc_label(h));
    EXPECT_EQ(z.standard_offset_hours(), h);
    EXPECT_FALSE(z.has_dst());
  }
}

TEST(ZoneDb, FixedZoneFactoryValidates) {
  EXPECT_EQ(fixed_zone(3).standard_offset_hours(), 3);
  EXPECT_THROW(fixed_zone(13), std::invalid_argument);
  EXPECT_THROW(fixed_zone(-12), std::invalid_argument);
}

TEST(ZoneDb, UtcLabels) {
  EXPECT_EQ(utc_label(0), "UTC");
  EXPECT_EQ(utc_label(5), "UTC+5");
  EXPECT_EQ(utc_label(-8), "UTC-8");
}

TEST(ZoneDb, MoscowHasNoDstSince2014) {
  EXPECT_FALSE(zone("Europe/Moscow").has_dst());
  EXPECT_EQ(zone("Europe/Moscow").standard_offset_hours(), 3);
}

TEST(ZoneDb, TurkeyHasNoDstIn2016Dataset) {
  EXPECT_FALSE(zone("Europe/Istanbul").has_dst());
}

struct ZoneExpectation {
  const char* name;
  std::int32_t offset_hours;
  bool dst;
  Hemisphere hemisphere;
};

// gtest prints each parameter into the test name CTest discovers; the
// default printer dumps the struct's bytes (a pointer and padding), which
// change with every process.
void PrintTo(const ZoneExpectation& expectation, std::ostream* os) { *os << expectation.name; }

class ZoneDbTable : public ::testing::TestWithParam<ZoneExpectation> {};

TEST_P(ZoneDbTable, MatchesExpectedConfiguration) {
  const auto& expected = GetParam();
  const TimeZone& z = zone(expected.name);
  EXPECT_EQ(z.standard_offset_hours(), expected.offset_hours) << expected.name;
  EXPECT_EQ(z.has_dst(), expected.dst) << expected.name;
  EXPECT_EQ(z.hemisphere(), expected.hemisphere) << expected.name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperZones, ZoneDbTable,
    ::testing::Values(
        ZoneExpectation{"America/Sao_Paulo", -3, true, Hemisphere::kSouthern},
        ZoneExpectation{"America/Los_Angeles", -8, true, Hemisphere::kNorthern},
        ZoneExpectation{"Europe/Helsinki", 2, true, Hemisphere::kNorthern},
        ZoneExpectation{"Europe/Paris", 1, true, Hemisphere::kNorthern},
        ZoneExpectation{"Europe/Berlin", 1, true, Hemisphere::kNorthern},
        ZoneExpectation{"America/Chicago", -6, true, Hemisphere::kNorthern},
        ZoneExpectation{"Europe/Rome", 1, true, Hemisphere::kNorthern},
        ZoneExpectation{"Asia/Tokyo", 9, false, Hemisphere::kNone},
        ZoneExpectation{"Asia/Kuala_Lumpur", 8, false, Hemisphere::kNone},
        ZoneExpectation{"Australia/Sydney", 10, true, Hemisphere::kSouthern},
        ZoneExpectation{"America/New_York", -5, true, Hemisphere::kNorthern},
        ZoneExpectation{"Europe/Warsaw", 1, true, Hemisphere::kNorthern},
        ZoneExpectation{"Europe/Istanbul", 3, false, Hemisphere::kNone},
        ZoneExpectation{"Europe/London", 0, true, Hemisphere::kNorthern},
        ZoneExpectation{"Europe/Moscow", 3, false, Hemisphere::kNone},
        ZoneExpectation{"Asia/Yerevan", 4, false, Hemisphere::kNone},
        ZoneExpectation{"America/Asuncion", -4, true, Hemisphere::kSouthern},
        ZoneExpectation{"America/Halifax", -4, true, Hemisphere::kNorthern}),
    [](const ::testing::TestParamInfo<ZoneExpectation>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '/' || c == '_') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace tzgeo::tz
