#include "core/report.hpp"

#include <gtest/gtest.h>

namespace core = mkbas::core;

namespace {

core::AttackRow sample_row() {
  core::AttackRow row;
  row.platform = core::Platform::kLinux;
  row.platform_label = "Linux";
  row.kind = mkbas::attack::AttackKind::kSpoofSensor;
  row.privilege = mkbas::attack::Privilege::kCodeExec;
  row.outcome.primitive_succeeded = true;
  row.outcome.attempts = 10;
  row.outcome.successes = 10;
  row.outcome.detail = "queued, \"all\" of them";
  row.safety.control_alive = true;
  row.safety.temp_excursion = true;
  row.safety.min_temp_c = 18.0;
  row.safety.max_temp_c = 27.7;
  return row;
}

}  // namespace

TEST(Report, CsvHasHeaderAndRow) {
  const std::string csv = core::attack_rows_to_csv({sample_row()});
  EXPECT_EQ(csv.find("attack,privilege,platform"), 0u);
  EXPECT_NE(csv.find("spoof-sensor-data,code-exec,Linux,1,10,10,1,1,1,0,0"),
            std::string::npos);
}

TEST(Report, CsvEscapesQuotesAndCommas) {
  const std::string csv = core::attack_rows_to_csv({sample_row()});
  // detail contains a comma and quotes: must be quoted with "" doubling.
  EXPECT_NE(csv.find("\"queued, \"\"all\"\" of them\""), std::string::npos);
}

TEST(Report, MarkdownTableRenders) {
  const std::string md = core::attack_rows_to_markdown({sample_row()});
  EXPECT_NE(md.find("| attack | privilege |"), std::string::npos);
  EXPECT_NE(md.find("| spoof-sensor-data | code-exec | Linux | "
                    "**SUCCEEDED** |"),
            std::string::npos);
  EXPECT_NE(md.find("TEMP-EXCURSION"), std::string::npos);
}

TEST(Report, EmptyInputsProduceHeadersOnly) {
  EXPECT_NE(core::attack_rows_to_csv({}).find("attack,"), std::string::npos);
  const std::string md = core::attack_rows_to_markdown({});
  EXPECT_NE(md.find("|---|"), std::string::npos);
}
