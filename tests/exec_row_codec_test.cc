#include "exec/row_codec.h"

#include <gtest/gtest.h>

#include "tuple_builder.h"

namespace synergy::exec {
namespace {

using testing::ColumnValue;
using testing::MakeTuple;

sql::RelationDef Rel() {
  return sql::RelationDef{
      .name = "T",
      .columns = {{"id", DataType::kInt},
                  {"name", DataType::kString},
                  {"score", DataType::kDouble}},
      .primary_key = {"id"}};
}

TEST(RowCodecTest, PkKeyRoundTrip) {
  auto rel = Rel();
  Tuple t = MakeTuple(rel, {{"id", Value(7)}, {"name", Value("x")}});
  auto key = EncodePkKey(rel, t);
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, EncodePkKeyFromValues({Value(7)}));
}

TEST(RowCodecTest, MissingPkFails) {
  auto rel = Rel();
  Tuple t = MakeTuple(rel, {{"name", Value("x")}});
  EXPECT_FALSE(EncodePkKey(rel, t).ok());
}

TEST(RowCodecTest, RowValueRoundTrip) {
  auto rel = Rel();
  Tuple t = MakeTuple(
      rel, {{"id", Value(1)}, {"name", Value("bob")}, {"score", Value(2.5)}});
  std::string bytes = EncodeRowValue(rel, t);
  Tuple decoded;
  ASSERT_TRUE(
      DecodeRowSlots(rel.columns, {}, rel.columns.size(), bytes, &decoded)
          .ok());
  EXPECT_EQ(decoded, t);
  EXPECT_EQ(ColumnValue(rel, decoded, "id"), Value(1));
  EXPECT_EQ(ColumnValue(rel, decoded, "name"), Value("bob"));
  EXPECT_EQ(ColumnValue(rel, decoded, "score"), Value(2.5));
}

TEST(RowCodecTest, MissingColumnsDecodeAsAbsent) {
  auto rel = Rel();
  Tuple t = MakeTuple(rel, {{"id", Value(1)}});
  Tuple decoded;
  ASSERT_TRUE(DecodeRowSlots(rel.columns, {}, rel.columns.size(),
                             EncodeRowValue(rel, t), &decoded)
                  .ok());
  ASSERT_EQ(decoded.size(), rel.columns.size());
  EXPECT_EQ(ColumnValue(rel, decoded, "id"), Value(1));
  EXPECT_TRUE(ColumnValue(rel, decoded, "name").is_null());
  EXPECT_TRUE(ColumnValue(rel, decoded, "score").is_null());
}

TEST(RowCodecTest, IndexKeyIncludesPkSuffix) {
  auto rel = Rel();
  sql::IndexDef ix{.name = "ix_name",
                   .relation = "T",
                   .indexed_columns = {"name"},
                   .covered_columns = {"name", "id"}};
  Tuple a = MakeTuple(rel, {{"id", Value(1)}, {"name", Value("bob")}});
  Tuple b = MakeTuple(rel, {{"id", Value(2)}, {"name", Value("bob")}});
  auto ka = EncodeIndexKey(ix, rel, a);
  auto kb = EncodeIndexKey(ix, rel, b);
  ASSERT_TRUE(ka.ok());
  ASSERT_TRUE(kb.ok());
  EXPECT_NE(*ka, *kb);  // same indexed value, different PK
  EXPECT_LT(*ka, *kb);
}

TEST(RowCodecTest, IndexPrefixRangeCoversAllPks) {
  auto rel = Rel();
  sql::IndexDef ix{.name = "ix_name",
                   .relation = "T",
                   .indexed_columns = {"name"},
                   .covered_columns = {"name", "id"}};
  auto [start, stop] = IndexPrefixRange({Value("bob")});
  for (int id : {1, 50, 999}) {
    Tuple t = MakeTuple(rel, {{"id", Value(id)}, {"name", Value("bob")}});
    auto key = EncodeIndexKey(ix, rel, t);
    ASSERT_TRUE(key.ok());
    EXPECT_GE(*key, start);
    EXPECT_LT(*key, stop);
  }
  Tuple other =
      MakeTuple(rel, {{"id", Value(1)}, {"name", Value("carol")}});
  auto key = EncodeIndexKey(ix, rel, other);
  ASSERT_TRUE(key.ok());
  EXPECT_GE(*key, stop);
}

TEST(RowCodecTest, ProjectedValueUsesGivenOrder) {
  auto rel = Rel();
  Tuple t = MakeTuple(
      rel, {{"id", Value(3)}, {"name", Value("x")}, {"score", Value(1.0)}});
  std::vector<std::string> cols = {"score", "id"};
  const std::vector<int> slots = {rel.ColumnIndex("score"),
                                  rel.ColumnIndex("id")};
  std::string bytes = EncodeProjectedValue(slots, t);
  // Decoding through the projection's slot map puts values back in
  // relation order.
  Tuple decoded;
  ASSERT_TRUE(DecodeRowSlots(ProjectColumns(rel, cols), slots,
                             rel.columns.size(), bytes, &decoded)
                  .ok());
  EXPECT_EQ(ColumnValue(rel, decoded, "score"), Value(1.0));
  EXPECT_EQ(ColumnValue(rel, decoded, "id"), Value(3));
  EXPECT_TRUE(ColumnValue(rel, decoded, "name").is_null());
}

}  // namespace
}  // namespace synergy::exec
