#include "wsq/relation/tpch_gen.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <string>
#include <string_view>

#include "wsq/common/random.h"

namespace wsq {
namespace {

constexpr int64_t kCustomerBaseRows = 150000;
constexpr int64_t kOrdersBaseRows = 450000;

constexpr std::array<std::string_view, 5> kMarketSegments = {
    "AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"};

constexpr std::array<std::string_view, 5> kOrderPriorities = {
    "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"};

constexpr std::array<std::string_view, 24> kCommentWords = {
    "carefully", "final",    "deposits", "requests", "furiously", "quickly",
    "packages",  "accounts", "ideas",    "pending",  "express",   "regular",
    "special",   "bold",     "even",     "theodolites", "platelets", "foxes",
    "instructions", "slyly", "blithely", "daringly", "dependencies", "asymptotes"};

// The longest comment has 16 words.
constexpr int kMaxCommentWords = 16;

// A comment word in a 16-byte slot, zero-filled past its end, so that a
// comment copies each word as one fixed-size block. A word that does not
// fit fails the constant evaluation of kWordSlots.
struct WordSlot {
  char text[16];
  size_t size;
};

constexpr std::array<WordSlot, kCommentWords.size()> MakeWordSlots() {
  std::array<WordSlot, kCommentWords.size()> slots{};
  for (size_t i = 0; i < kCommentWords.size(); ++i) {
    std::copy(kCommentWords[i].begin(), kCommentWords[i].end(),
              slots[i].text);
    slots[i].size = kCommentWords[i].size();
  }
  return slots;
}

constexpr std::array<WordSlot, kCommentWords.size()> kWordSlots =
    MakeWordSlots();

// Draws the word count, then each word. The words are laid out in a
// stack buffer with room for a whole slot past the last one, and the
// comment is one exact-size copy of it.
std::string RandomComment(Random& rng, int min_words, int max_words) {
  const int words = static_cast<int>(rng.UniformInt(min_words, max_words));
  char buf[(kMaxCommentWords + 1) * sizeof(WordSlot::text)];
  char* at = buf;
  for (int i = 0; i < words; ++i) {
    const WordSlot& word = kWordSlots[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kWordSlots.size()) - 1))];
    std::memcpy(at, word.text, sizeof(word.text));
    at += word.size;
    *at++ = ' ';
  }
  return std::string(buf, at - 1);
}

// Writes `value` in decimal at `out`, left-padded with zeros to `width`
// digits (printf's %0*lld for a non-negative value); returns the end.
char* WriteZeroPadded(char* out, int64_t value, int width) {
  char digits[20];
  char* const end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  const int length = static_cast<int>(end - digits);
  if (length < width) out = std::fill_n(out, width - length, '0');
  return std::copy(digits, end, out);
}

// `prefix` followed by `key` zero-padded to nine digits.
std::string PaddedKey(std::string_view prefix, int64_t key) {
  char buf[32];
  char* end = std::copy(prefix.begin(), prefix.end(), buf);
  end = WriteZeroPadded(end, key, 9);
  return std::string(buf, end);
}

// NN-AAA-EEE-LLLL with NN = 10 + nation_key. The groups draw right to
// left: line, exchange, then area.
std::string PhoneNumber(Random& rng, int64_t nation_key) {
  const int64_t line = rng.UniformInt(1000, 9999);
  const int64_t exchange = rng.UniformInt(100, 999);
  const int64_t area = rng.UniformInt(100, 999);
  char buf[32];
  char* end = WriteZeroPadded(buf, 10 + nation_key, 2);
  *end++ = '-';
  end = WriteZeroPadded(end, area, 3);
  *end++ = '-';
  end = WriteZeroPadded(end, exchange, 3);
  *end++ = '-';
  end = WriteZeroPadded(end, line, 4);
  return std::string(buf, end);
}

// YYYY-MM-DD. The parts draw right to left: day, month, then year.
std::string OrderDate(Random& rng) {
  const int64_t day = rng.UniformInt(1, 28);
  const int64_t month = rng.UniformInt(1, 12);
  const int64_t year = rng.UniformInt(1992, 1998);
  char buf[16];
  char* end = WriteZeroPadded(buf, year, 4);
  *end++ = '-';
  end = WriteZeroPadded(end, month, 2);
  *end++ = '-';
  end = WriteZeroPadded(end, day, 2);
  return std::string(buf, end);
}

int64_t RowCount(int64_t base, double scale) {
  const double rows = static_cast<double>(base) * scale;
  return rows < 1.0 ? 1 : static_cast<int64_t>(rows);
}

}  // namespace

Schema CustomerSchema() {
  return Schema({{"c_custkey", ColumnType::kInt64},
                 {"c_name", ColumnType::kString},
                 {"c_address", ColumnType::kString},
                 {"c_nationkey", ColumnType::kInt64},
                 {"c_phone", ColumnType::kString},
                 {"c_acctbal", ColumnType::kDouble},
                 {"c_mktsegment", ColumnType::kString},
                 {"c_comment", ColumnType::kString}});
}

Schema OrdersSchema() {
  return Schema({{"o_orderkey", ColumnType::kInt64},
                 {"o_custkey", ColumnType::kInt64},
                 {"o_orderstatus", ColumnType::kString},
                 {"o_totalprice", ColumnType::kDouble},
                 {"o_orderdate", ColumnType::kString},
                 {"o_orderpriority", ColumnType::kString},
                 {"o_clerk", ColumnType::kString},
                 {"o_shippriority", ColumnType::kInt64},
                 {"o_comment", ColumnType::kString}});
}

Result<std::shared_ptr<Table>> GenerateCustomer(
    const TpchGenOptions& options) {
  if (options.scale <= 0.0) {
    return Status::InvalidArgument("scale must be positive");
  }
  Random rng(options.seed);
  const int64_t rows = RowCount(kCustomerBaseRows, options.scale);
  auto table = std::make_shared<Table>("customer", CustomerSchema());
  table->Reserve(static_cast<size_t>(rows));

  for (int64_t key = 1; key <= rows; ++key) {
    const int64_t nation = rng.UniformInt(0, 24);
    std::vector<Value> values;
    values.reserve(8);
    values.emplace_back(key);
    values.emplace_back(PaddedKey("Customer#", key));
    values.emplace_back(RandomComment(rng, 2, 4));
    values.emplace_back(nation);
    values.emplace_back(PhoneNumber(rng, nation));
    values.emplace_back(rng.Uniform(-999.99, 9999.99));
    values.emplace_back(std::string(kMarketSegments[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kMarketSegments.size()) - 1))]));
    values.emplace_back(RandomComment(rng, 6, 16));
    table->AppendUnchecked(Tuple(std::move(values)));
  }
  return table;
}

Result<std::shared_ptr<Table>> GenerateOrders(const TpchGenOptions& options) {
  if (options.scale <= 0.0) {
    return Status::InvalidArgument("scale must be positive");
  }
  Random rng(options.seed + 1);
  const int64_t rows = RowCount(kOrdersBaseRows, options.scale);
  const int64_t num_customers = RowCount(kCustomerBaseRows, options.scale);
  auto table = std::make_shared<Table>("orders", OrdersSchema());
  table->Reserve(static_cast<size_t>(rows));

  for (int64_t key = 1; key <= rows; ++key) {
    const int64_t clerk = rng.UniformInt(1, 1000);
    const char* status_options = "OFP";
    std::vector<Value> values;
    values.reserve(9);
    values.emplace_back(key);
    values.emplace_back(rng.UniformInt(1, num_customers));
    values.emplace_back(std::string(1, status_options[rng.UniformInt(0, 2)]));
    values.emplace_back(rng.Uniform(850.0, 550000.0));
    values.emplace_back(OrderDate(rng));
    values.emplace_back(std::string(kOrderPriorities[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(kOrderPriorities.size()) - 1))]));
    values.emplace_back(PaddedKey("Clerk#", clerk));
    values.emplace_back(static_cast<int64_t>(0));
    values.emplace_back(RandomComment(rng, 4, 12));
    table->AppendUnchecked(Tuple(std::move(values)));
  }
  return table;
}

}  // namespace wsq
