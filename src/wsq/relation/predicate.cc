#include "wsq/relation/predicate.h"

#include <cctype>
#include <charconv>
#include <variant>

namespace wsq {
namespace {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

bool ApplyOrder(CompareOp op, int order) {
  switch (op) {
    case CompareOp::kEq:
      return order == 0;
    case CompareOp::kNe:
      return order != 0;
    case CompareOp::kLt:
      return order < 0;
    case CompareOp::kLe:
      return order <= 0;
    case CompareOp::kGt:
      return order > 0;
    case CompareOp::kGe:
      return order >= 0;
  }
  return false;
}

int Sign(double v) { return v < 0.0 ? -1 : (v > 0.0 ? 1 : 0); }

/// Recursive-descent compiler producing Predicate closures directly.
class Compiler {
 public:
  Compiler(const Schema& schema, std::string_view input)
      : schema_(schema), input_(input) {}

  Result<Predicate> Compile() {
    Result<Predicate> expr = ParseExpr();
    if (!expr.ok()) return expr.status();
    SkipSpace();
    if (pos_ != input_.size()) {
      return Error("trailing input after expression");
    }
    return expr;
  }

 private:
  Status Error(std::string_view message) const {
    return Status::InvalidArgument("filter parse error at offset " +
                                   std::to_string(pos_) + ": " +
                                   std::string(message));
  }

  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= input_.size();
  }

  /// Consumes a case-insensitive keyword followed by a non-identifier
  /// boundary.
  bool ConsumeKeyword(std::string_view keyword) {
    SkipSpace();
    if (input_.size() - pos_ < keyword.size()) return false;
    for (size_t i = 0; i < keyword.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(input_[pos_ + i])) !=
          keyword[i]) {
        return false;
      }
    }
    const size_t after = pos_ + keyword.size();
    if (after < input_.size() &&
        (std::isalnum(static_cast<unsigned char>(input_[after])) ||
         input_[after] == '_')) {
      return false;  // identifier continues: not the keyword
    }
    pos_ = after;
    return true;
  }

  bool ConsumeChar(char c) {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Predicate> ParseExpr() {
    Result<Predicate> left = ParseTerm();
    if (!left.ok()) return left.status();
    Predicate result = std::move(left).value();
    while (ConsumeKeyword("OR")) {
      Result<Predicate> right = ParseTerm();
      if (!right.ok()) return right.status();
      result = [lhs = std::move(result),
                rhs = std::move(right).value()](const Tuple& t) {
        return lhs(t) || rhs(t);
      };
    }
    return result;
  }

  Result<Predicate> ParseTerm() {
    Result<Predicate> left = ParseFactor();
    if (!left.ok()) return left.status();
    Predicate result = std::move(left).value();
    while (ConsumeKeyword("AND")) {
      Result<Predicate> right = ParseFactor();
      if (!right.ok()) return right.status();
      result = [lhs = std::move(result),
                rhs = std::move(right).value()](const Tuple& t) {
        return lhs(t) && rhs(t);
      };
    }
    return result;
  }

  Result<Predicate> ParseFactor() {
    if (ConsumeKeyword("NOT")) {
      Result<Predicate> inner = ParseFactor();
      if (!inner.ok()) return inner.status();
      return Predicate([p = std::move(inner).value()](const Tuple& t) {
        return !p(t);
      });
    }
    if (ConsumeChar('(')) {
      Result<Predicate> inner = ParseExpr();
      if (!inner.ok()) return inner.status();
      if (!ConsumeChar(')')) return Error("expected ')'");
      return inner;
    }
    return ParseComparison();
  }

  Result<std::string> ParseIdentifier() {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a column name");
    return std::string(input_.substr(start, pos_ - start));
  }

  Result<CompareOp> ParseOp() {
    SkipSpace();
    if (pos_ >= input_.size()) return Error("expected an operator");
    const char c = input_[pos_];
    if (c == '=') {
      ++pos_;
      return CompareOp::kEq;
    }
    if (c == '!' && pos_ + 1 < input_.size() && input_[pos_ + 1] == '=') {
      pos_ += 2;
      return CompareOp::kNe;
    }
    if (c == '<') {
      ++pos_;
      if (pos_ < input_.size() && input_[pos_] == '=') {
        ++pos_;
        return CompareOp::kLe;
      }
      return CompareOp::kLt;
    }
    if (c == '>') {
      ++pos_;
      if (pos_ < input_.size() && input_[pos_] == '=') {
        ++pos_;
        return CompareOp::kGe;
      }
      return CompareOp::kGt;
    }
    return Error("expected an operator (=, !=, <, <=, >, >=)");
  }

  Result<Predicate> ParseComparison() {
    Result<std::string> column = ParseIdentifier();
    if (!column.ok()) return column.status();
    Result<size_t> index = schema_.ColumnIndex(column.value());
    if (!index.ok()) {
      return Error("unknown column: " + column.value());
    }
    const size_t column_index = index.value();
    const ColumnType type = schema_.column(column_index).type;

    Result<CompareOp> op = ParseOp();
    if (!op.ok()) return op.status();

    SkipSpace();
    if (pos_ >= input_.size()) return Error("expected a literal");

    if (input_[pos_] == '\'') {
      // String literal ('' escapes a quote).
      ++pos_;
      std::string literal;
      while (pos_ < input_.size()) {
        if (input_[pos_] == '\'') {
          if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '\'') {
            literal += '\'';
            pos_ += 2;
            continue;
          }
          ++pos_;
          if (type != ColumnType::kString) {
            return Error("string literal compared against numeric column " +
                         column.value());
          }
          return Predicate([column_index, cmp = op.value(),
                            literal](const Tuple& t) {
            if (column_index >= t.num_values()) return false;
            const auto* s = std::get_if<std::string>(&t.value(column_index));
            if (s == nullptr) return false;
            return ApplyOrder(cmp, s->compare(literal) < 0   ? -1
                                   : s->compare(literal) > 0 ? 1
                                                             : 0);
          });
        }
        literal += input_[pos_++];
      }
      return Error("unterminated string literal");
    }

    // Numeric literal, read with from_chars: unlike strtod it ignores the
    // C locale's LC_NUMERIC and stops at the end of the input. It takes
    // no leading '+' and no hex.
    const char* begin = input_.data() + pos_;
    double literal = 0.0;
    const auto [end, ec] =
        std::from_chars(begin, input_.data() + input_.size(), literal);
    if (ec == std::errc::invalid_argument) return Error("expected a literal");
    if (ec != std::errc()) return Error("numeric literal out of range");
    pos_ += static_cast<size_t>(end - begin);
    if (type == ColumnType::kString) {
      return Error("numeric literal compared against string column " +
                   column.value());
    }
    return Predicate([column_index, cmp = op.value(),
                      literal](const Tuple& t) {
      if (column_index >= t.num_values()) return false;
      double v = 0.0;
      if (const auto* i = std::get_if<int64_t>(&t.value(column_index))) {
        v = static_cast<double>(*i);
      } else if (const auto* d =
                     std::get_if<double>(&t.value(column_index))) {
        v = *d;
      } else {
        return false;
      }
      return ApplyOrder(cmp, Sign(v - literal));
    });
  }

  const Schema& schema_;
  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

Result<Predicate> CompilePredicate(const Schema& schema,
                                   std::string_view expression) {
  Compiler compiler(schema, expression);
  return compiler.Compile();
}

}  // namespace wsq
