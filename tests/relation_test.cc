// Tests for the clustered node relation and its access paths.

#include "storage/relation.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "storage/image.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace lpath {
namespace {

using testing::BuildFigure1Corpus;
using testing::RandomCorpus;

class Figure1RelationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = BuildFigure1Corpus();
    Result<NodeRelation> rel = NodeRelation::Build(corpus_);
    ASSERT_TRUE(rel.ok()) << rel.status();
    rel_ = std::make_unique<NodeRelation>(std::move(rel).value());
  }
  Corpus corpus_;
  std::unique_ptr<NodeRelation> rel_;
};

TEST_F(Figure1RelationTest, RowCountIsNodesPlusAttrs) {
  // 15 element nodes + 9 @lex attributes.
  EXPECT_EQ(rel_->row_count(), 24u);
  EXPECT_EQ(rel_->element_count(), 15u);
  EXPECT_EQ(rel_->tree_count(), 1);
}

TEST_F(Figure1RelationTest, ClusteredOrderGroupsByName) {
  const Symbol np = corpus_.Lookup("NP");
  RowRange run = rel_->run(np);
  EXPECT_EQ(run.size(), 4u);  // NP(I), NP6, NP7, NP(a dog)
  // Sorted by (tid, left, right) within the run.
  for (Row r = run.begin; r + 1 < run.end; ++r) {
    EXPECT_LE(rel_->left(r), rel_->left(r + 1));
    EXPECT_EQ(rel_->name(r), np);
  }
}

TEST_F(Figure1RelationTest, NameCardinality) {
  EXPECT_EQ(rel_->NameCardinality(corpus_.Lookup("NP")), 4u);
  EXPECT_EQ(rel_->NameCardinality(corpus_.Lookup("N")), 3u);
  EXPECT_EQ(rel_->NameCardinality(corpus_.Lookup("S")), 1u);
  EXPECT_EQ(rel_->NameCardinality(corpus_.Lookup("@lex")), 9u);
  EXPECT_EQ(rel_->NameCardinality(kNoSymbol), 0u);
}

TEST_F(Figure1RelationTest, AttributeRowsShareElementLabels) {
  // The V row and its @lex row have identical labels (Definition 4.1 rule 8).
  const Symbol v = corpus_.Lookup("V");
  RowRange vrun = rel_->run(v);
  ASSERT_EQ(vrun.size(), 1u);
  const Row vrow = vrun.begin;
  EXPECT_FALSE(rel_->is_attr(vrow));

  auto attrs = rel_->AttrRows(0, rel_->id(vrow));
  ASSERT_EQ(attrs.size(), 1u);
  const Row arow = attrs[0];
  EXPECT_TRUE(rel_->is_attr(arow));
  EXPECT_EQ(rel_->label(arow), rel_->label(vrow));
  EXPECT_EQ(rel_->interner().name(rel_->name(arow)), "@lex");
  EXPECT_EQ(rel_->interner().name(rel_->value(arow)), "saw");
}

TEST_F(Figure1RelationTest, ValueIndex) {
  auto saw_rows = rel_->ValueRange(corpus_.Lookup("saw"));
  ASSERT_EQ(saw_rows.size(), 1u);
  EXPECT_EQ(rel_->left(saw_rows[0]), 2);
  EXPECT_EQ(rel_->right(saw_rows[0]), 3);
  EXPECT_TRUE(rel_->ValueRange(corpus_.Lookup("nonexistent")).empty());
  EXPECT_EQ(rel_->ValueCardinality(corpus_.Lookup("saw")), 1u);
}

TEST_F(Figure1RelationTest, ElementRowLookup) {
  // id 1 = the root S (pre-order).
  Row s = rel_->ElementRow(0, 1);
  ASSERT_NE(s, kNoRow);
  EXPECT_EQ(rel_->interner().name(rel_->name(s)), "S");
  EXPECT_EQ(rel_->left(s), 1);
  EXPECT_EQ(rel_->right(s), 10);
  EXPECT_EQ(rel_->ElementRow(0, 99), kNoRow);
  EXPECT_EQ(rel_->ElementRow(5, 1), kNoRow);
  EXPECT_EQ(rel_->ElementRow(0, 0), kNoRow);
}

TEST_F(Figure1RelationTest, RunLeftRange) {
  // NPs with left in [3, 9) in tree 0: NP6 (l=3), NP7 (l=3), NP(a dog) (l=7).
  const Symbol np = corpus_.Lookup("NP");
  RowRange rng = rel_->RunLeftRange(rel_->RunForTree(np, 0), 3, 9);
  EXPECT_EQ(rng.size(), 3u);
  // Empty for a bogus tree and inverted bounds.
  EXPECT_TRUE(rel_->RunLeftRange(rel_->RunForTree(np, 7), 0, 100).empty());
  EXPECT_TRUE(rel_->RunLeftRange(rel_->RunForTree(np, 0), 5, 5).empty());
}

TEST_F(Figure1RelationTest, RunRightRange) {
  // NPs with right == 9: NP6 [3,9] and NP(a dog) [7,9].
  const Symbol np = corpus_.Lookup("NP");
  auto rows = rel_->RunRightRange(rel_->RunForTree(np, 0), 9, 10);
  EXPECT_EQ(rows.size(), 2u);
  for (Row r : rows) EXPECT_EQ(rel_->right(r), 9);
}

TEST_F(Figure1RelationTest, RunPidRange) {
  // Children of NP7 (Det, Adj, N): by tag.
  const Symbol np = corpus_.Lookup("NP");
  RowRange np_run = rel_->RunForTree(np, 0);
  // find NP7: left=3, right=6
  Row np7 = kNoRow;
  for (Row r = np_run.begin; r < np_run.end; ++r) {
    if (rel_->left(r) == 3 && rel_->right(r) == 6) np7 = r;
  }
  ASSERT_NE(np7, kNoRow);
  auto dets = rel_->RunPidRange(rel_->RunForTree(corpus_.Lookup("Det"), 0),
                                rel_->id(np7));
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_EQ(rel_->left(dets[0]), 3);
  auto ns = rel_->RunPidRange(rel_->RunForTree(corpus_.Lookup("N"), 0),
                              rel_->id(np7));
  ASSERT_EQ(ns.size(), 1u);
  EXPECT_EQ(rel_->left(ns[0]), 5);
}

TEST(RelationTest, RandomCorpusConsistency) {
  Corpus corpus = RandomCorpus(/*seed=*/77, /*trees=*/30);
  Result<NodeRelation> built = NodeRelation::Build(corpus);
  ASSERT_TRUE(built.ok());
  const NodeRelation& rel = built.value();

  // Every element of every tree is reachable through ElementRow and carries
  // consistent columns.
  size_t elements = 0;
  for (TreeId tid = 0; tid < static_cast<TreeId>(corpus.size()); ++tid) {
    const Tree& t = corpus.tree(tid);
    for (NodeId i = 0; i < static_cast<NodeId>(t.size()); ++i) {
      Row r = rel.ElementRow(tid, i + 1);
      ASSERT_NE(r, kNoRow);
      EXPECT_EQ(rel.tid(r), tid);
      EXPECT_EQ(rel.id(r), i + 1);
      EXPECT_EQ(rel.name(r), t.name(i));
      EXPECT_FALSE(rel.is_attr(r));
      ++elements;
    }
  }
  EXPECT_EQ(rel.element_count(), elements);

  // Runs partition the row space.
  size_t covered = 0;
  for (Symbol s = 1; s < corpus.interner().end_id(); ++s) {
    covered += rel.run(s).size();
  }
  EXPECT_EQ(covered, rel.row_count());
  EXPECT_GT(rel.MemoryBytes(), 0u);
}

TEST(RelationTest, XPathSchemeBuilds) {
  Corpus corpus = RandomCorpus(/*seed=*/78, /*trees=*/10);
  RelationOptions opts;
  opts.scheme = LabelScheme::kXPath;
  Result<NodeRelation> built = NodeRelation::Build(corpus, opts);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->scheme(), LabelScheme::kXPath);
  // Tag positions: strict nesting means left < right always, and the root
  // of each tree spans [1, 2*size].
  for (TreeId tid = 0; tid < static_cast<TreeId>(corpus.size()); ++tid) {
    Row root = built->ElementRow(tid, 1);
    ASSERT_NE(root, kNoRow);
    EXPECT_EQ(built->left(root), 1);
    EXPECT_EQ(built->right(root),
              static_cast<int32_t>(2 * corpus.tree(tid).size()));
  }
}

// --- Tree-slice probes against brute force -------------------------------

/// Keys a probe's output order is defined by, for comparing against a
/// brute-force filter: rows tied on every key (e.g. a unary NP over NP
/// shares left and right) may come in either order.
using ProbeKey = std::tuple<int32_t, int32_t>;

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Checks RunForTree and the three slice probes of `rel` against brute-force
/// filters of run(name): every name plus one unknown symbol, every tree
/// plus tid -1 and tid tree_count(), random bounds (empty and inverted
/// ranges included).
void ExpectSliceProbesMatchBruteForce(const NodeRelation& rel, uint64_t seed) {
  Rng rng(seed);
  int32_t max_label = 0;
  int32_t max_id = 0;
  for (Row r = 0; r < rel.row_count(); ++r) {
    max_label = std::max({max_label, rel.left(r), rel.right(r)});
    max_id = std::max(max_id, rel.id(r));
  }
  auto random_bound = [&rng](int32_t max) {
    return static_cast<int32_t>(rng.Below(static_cast<uint64_t>(max) + 5)) - 2;
  };
  const Symbol unknown = rel.interner().end_id();
  for (Symbol name = 1; name <= unknown; ++name) {
    const RowRange run = rel.run(name);
    for (int32_t t = -1; t <= rel.tree_count(); ++t) {
      std::vector<Row> in_tree;
      for (Row r = run.begin; r < run.end; ++r) {
        if (rel.tid(r) == t) in_tree.push_back(r);
      }
      const RowRange tree = rel.RunForTree(name, t);
      std::vector<Row> got_tree;
      for (Row r = tree.begin; r < tree.end; ++r) got_tree.push_back(r);
      ASSERT_EQ(got_tree, in_tree) << "name " << name << " tid " << t;

      for (int trial = 0; trial < 6; ++trial) {
        const int32_t lo = random_bound(max_label);
        const int32_t hi = random_bound(max_label);
        const int32_t pid = random_bound(max_id);

        // Left: a clustered sub-slice, so exactly the filter in run order.
        std::vector<Row> want_left;
        for (Row r : in_tree) {
          if (rel.left(r) >= lo && rel.left(r) < hi) want_left.push_back(r);
        }
        const RowRange left = rel.RunLeftRange(tree, lo, hi);
        std::vector<Row> got_left;
        for (Row r = left.begin; r < left.end; ++r) got_left.push_back(r);
        ASSERT_EQ(got_left, want_left)
            << "name " << name << " tid " << t << " left [" << lo << ", "
            << hi << ")";

        // Right: ordered by (right, left).
        std::vector<Row> want_right;
        for (Row r : in_tree) {
          if (rel.right(r) >= lo && rel.right(r) < hi) want_right.push_back(r);
        }
        auto right_key = [&rel](Row r) {
          return ProbeKey{rel.right(r), rel.left(r)};
        };
        auto right_less = [&right_key](Row a, Row b) {
          return right_key(a) < right_key(b);
        };
        std::stable_sort(want_right.begin(), want_right.end(), right_less);
        const auto right = rel.RunRightRange(tree, lo, hi);
        std::vector<Row> got_right(right.begin(), right.end());
        ASSERT_EQ(Sorted(got_right), Sorted(want_right))
            << "name " << name << " tid " << t << " right [" << lo << ", "
            << hi << ")";
        for (size_t i = 0; i < got_right.size(); ++i) {
          ASSERT_EQ(right_key(got_right[i]), right_key(want_right[i]));
        }

        // Pid: ordered by left.
        std::vector<Row> want_pid;
        for (Row r : in_tree) {
          if (rel.pid(r) == pid) want_pid.push_back(r);
        }
        const auto kids = rel.RunPidRange(tree, pid);
        std::vector<Row> got_pid(kids.begin(), kids.end());
        ASSERT_EQ(Sorted(got_pid), Sorted(want_pid))
            << "name " << name << " tid " << t << " pid " << pid;
        for (size_t i = 0; i < got_pid.size(); ++i) {
          ASSERT_EQ(rel.left(got_pid[i]), rel.left(want_pid[i]));
        }
      }
    }
  }
}

class TreeSliceProbeTest : public ::testing::Test {
 protected:
  TreeSliceProbeTest()
      : path_((std::filesystem::temp_directory_path() /
               ("lpathdb_relation_probe_" + std::to_string(::getpid()) +
                ".img"))
                  .string()) {}
  ~TreeSliceProbeTest() override { std::filesystem::remove(path_); }

  std::string path_;
};

TEST_F(TreeSliceProbeTest, BuiltRelation) {
  Corpus corpus = RandomCorpus(/*seed=*/301, /*trees=*/25);
  Result<NodeRelation> rel = NodeRelation::Build(corpus);
  ASSERT_TRUE(rel.ok()) << rel.status();
  ExpectSliceProbesMatchBruteForce(rel.value(), 1);
}

TEST_F(TreeSliceProbeTest, EncodedImage) {
  Corpus corpus = RandomCorpus(/*seed=*/302, /*trees=*/25);
  Result<NodeRelation> built = NodeRelation::Build(corpus);
  ASSERT_TRUE(built.ok()) << built.status();
  ASSERT_TRUE(ImageIO::Save(built.value(), path_).ok());
  Result<NodeRelation> opened = ImageIO::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ExpectSliceProbesMatchBruteForce(opened.value(), 2);
}

TEST_F(TreeSliceProbeTest, RawImage) {
  Corpus corpus = RandomCorpus(/*seed=*/303, /*trees=*/25);
  Result<NodeRelation> built = NodeRelation::Build(corpus);
  ASSERT_TRUE(built.ok()) << built.status();
  ImageSaveOptions raw;
  raw.encoding = ImageEncoding::kRaw;
  ASSERT_TRUE(ImageIO::Save(built.value(), path_, raw).ok());
  Result<NodeRelation> opened = ImageIO::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status();
  ExpectSliceProbesMatchBruteForce(opened.value(), 3);
}

TEST_F(TreeSliceProbeTest, MergeCompactedRelation) {
  // Merge builds the permutations by concatenating base and shifted delta
  // entries rather than sorting, so it gets its own case.
  Result<SnapshotPtr> base =
      CorpusSnapshot::Build(RandomCorpus(/*seed=*/304, /*trees=*/15));
  ASSERT_TRUE(base.ok()) << base.status();
  Result<SnapshotPtr> chained =
      base.value()->Append(RandomCorpus(/*seed=*/305, /*trees=*/12));
  ASSERT_TRUE(chained.ok()) << chained.status();
  Result<SnapshotPtr> compacted = chained.value()->Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status();
  ASSERT_EQ(compacted.value()->relation().tree_count(), 27);
  ExpectSliceProbesMatchBruteForce(compacted.value()->relation(), 4);
}

TEST(RelationTest, EmptyCorpus) {
  Corpus corpus;
  Result<NodeRelation> built = NodeRelation::Build(corpus);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->row_count(), 0u);
  EXPECT_EQ(built->tree_count(), 0);
}

}  // namespace
}  // namespace lpath
