#include "invalidation/expiry_book.h"

#include <gtest/gtest.h>

namespace speedkit::invalidation {
namespace {

SimTime At(double seconds) {
  return SimTime::Origin() + Duration::Seconds(seconds);
}

TEST(ExpiryBookTest, UnknownKeyHasNoOutstandingCopies) {
  ExpiryBook book;
  EXPECT_EQ(book.LatestExpiry("k", At(10)), At(10));
}

TEST(ExpiryBookTest, RecordsLatestDeadline) {
  ExpiryBook book;
  book.RecordServed("k", At(60));
  EXPECT_EQ(book.LatestExpiry("k", At(10)), At(60));
}

TEST(ExpiryBookTest, KeepsMaxAcrossServes) {
  ExpiryBook book;
  book.RecordServed("k", At(60));
  book.RecordServed("k", At(30));  // earlier deadline must not shrink
  EXPECT_EQ(book.LatestExpiry("k", At(10)), At(60));
  book.RecordServed("k", At(90));
  EXPECT_EQ(book.LatestExpiry("k", At(10)), At(90));
}

TEST(ExpiryBookTest, ExpiredDeadlineCollapsesToNow) {
  ExpiryBook book;
  book.RecordServed("k", At(60));
  EXPECT_EQ(book.LatestExpiry("k", At(70)), At(70));
}

TEST(ExpiryBookTest, KeysAreIndependent) {
  ExpiryBook book;
  book.RecordServed("a", At(60));
  book.RecordServed("b", At(120));
  EXPECT_EQ(book.LatestExpiry("a", At(0)), At(60));
  EXPECT_EQ(book.LatestExpiry("b", At(0)), At(120));
}

}  // namespace
}  // namespace speedkit::invalidation
