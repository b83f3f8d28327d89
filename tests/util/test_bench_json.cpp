#include "util/bench_json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace wsmd {
namespace {

TEST(JsonObject, EncodesScalarsInOrder) {
  JsonObject o;
  o.set("threads", 4).set("steps_per_s", 2.5).set("element", "Ta");
  o.set("ok", true);
  EXPECT_EQ(o.encode(),
            "{\"threads\": 4, \"steps_per_s\": 2.5, \"element\": \"Ta\", "
            "\"ok\": true}");
}

TEST(JsonObject, EscapesStringsAndNonFinite) {
  JsonObject o;
  o.set("name", "a\"b\\c\n");
  o.set("bad", std::numeric_limits<double>::infinity());
  EXPECT_EQ(o.encode(), "{\"name\": \"a\\\"b\\\\c\\n\", \"bad\": null}");
}

TEST(BenchJson, EncodesMetaAndRows) {
  BenchJson b("unit_test");
  b.meta().set("atoms", 128).set("element", "Ta");
  b.add_row().set("threads", 1).set("steps_per_s", 10.0);
  b.add_row().set("threads", 2).set("steps_per_s", 19.5);
  // The provenance meta block is environment-dependent (git SHA, compiler),
  // so the expectation embeds whatever this build reports.
  const std::string expected =
      "{\n"
      "  \"bench\": \"unit_test\",\n"
      "  \"atoms\": 128,\n"
      "  \"element\": \"Ta\",\n"
      "  \"meta\": " + BenchJson::provenance().encode() + ",\n"
      "  \"rows\": [\n"
      "    {\"threads\": 1, \"steps_per_s\": 10},\n"
      "    {\"threads\": 2, \"steps_per_s\": 19.5}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(b.encode(), expected);
}

TEST(BenchJson, NoRowsStillValid) {
  BenchJson b("empty");
  EXPECT_EQ(b.encode(), "{\n  \"bench\": \"empty\",\n  \"meta\": " +
                            BenchJson::provenance().encode() +
                            ",\n  \"rows\": [\n  ]\n}\n");
}

TEST(BenchJson, ProvenanceHasRequiredKeys) {
  const std::string meta = BenchJson::provenance().encode();
  EXPECT_NE(meta.find("\"git_sha\""), std::string::npos) << meta;
  EXPECT_NE(meta.find("\"compiler\""), std::string::npos) << meta;
  EXPECT_NE(meta.find("\"build_type\""), std::string::npos) << meta;
  EXPECT_NE(meta.find("\"threads\""), std::string::npos) << meta;
}

TEST(BenchJson, WriteToFullDiskRaisesWriteError) {
  if (!std::ofstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full cannot be opened for writing";
  }
  BenchJson b("unit_test");
  b.add_row().set("x", 1);
  // The document fits the stream buffer: only the flush can fail.
  EXPECT_THROW(b.write_to("/dev/full"), WriteError);
}

TEST(BenchJson, WritesFile) {
  BenchJson b("write_test");
  b.meta().set("atoms", 1);
  b.add_row().set("threads", 1);
  const std::string path = b.write(::testing::TempDir());
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), b.encode());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wsmd
