#include "sql/parser.h"

namespace etsqp::sql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> ParseStatement() {
    SelectStatement stmt;
    if (Accept(TokenKind::kExplain)) {
      stmt.explain = true;
      stmt.analyze = Accept(TokenKind::kAnalyze);
    }
    ETSQP_RETURN_IF_ERROR(Expect(TokenKind::kSelect, "SELECT"));
    ETSQP_RETURN_IF_ERROR(ParseSelectItem(&stmt.item));
    ETSQP_RETURN_IF_ERROR(Expect(TokenKind::kFrom, "FROM"));
    ETSQP_RETURN_IF_ERROR(ParseIdent(&stmt.tables));
    if (Accept(TokenKind::kComma)) {
      ETSQP_RETURN_IF_ERROR(ParseIdent(&stmt.tables));
    } else if (Accept(TokenKind::kUnion)) {
      stmt.is_union = true;
      std::vector<std::string> right;
      ETSQP_RETURN_IF_ERROR(ParseIdent(&right));
      stmt.union_right = right[0];
      ETSQP_RETURN_IF_ERROR(Expect(TokenKind::kOrder, "ORDER"));
      ETSQP_RETURN_IF_ERROR(Expect(TokenKind::kBy, "BY"));
      ETSQP_RETURN_IF_ERROR(Expect(TokenKind::kTime, "TIME"));
    }
    if (Accept(TokenKind::kWhere)) {
      ETSQP_RETURN_IF_ERROR(ParsePredicates(&stmt.predicates));
    }
    if (Accept(TokenKind::kSw)) {
      ETSQP_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "("));
      int64_t tmin = 0, dt = 0;
      ETSQP_RETURN_IF_ERROR(ExpectNumber(&tmin));
      ETSQP_RETURN_IF_ERROR(Expect(TokenKind::kComma, ","));
      ETSQP_RETURN_IF_ERROR(ExpectNumber(&dt));
      ETSQP_RETURN_IF_ERROR(Expect(TokenKind::kRParen, ")"));
      if (dt <= 0) return Status::InvalidArgument("sql: SW width must be > 0");
      stmt.has_window = true;
      stmt.window_t_min = tmin;
      stmt.window_delta_t = dt;
    }
    Accept(TokenKind::kSemicolon);
    if (Peek().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("sql: trailing tokens");
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& Next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool Accept(TokenKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(TokenKind kind, const char* what) {
    if (!Accept(kind)) {
      return Status::InvalidArgument(std::string("sql: expected ") + what +
                                     " at offset " +
                                     std::to_string(Peek().offset));
    }
    return Status::Ok();
  }
  Status ExpectNumber(int64_t* out) {
    if (Peek().kind != TokenKind::kNumber) {
      return Status::InvalidArgument("sql: expected number at offset " +
                                     std::to_string(Peek().offset));
    }
    *out = Next().number;
    return Status::Ok();
  }
  static bool IsNameToken(const Token& t) {
    // Identifiers may reuse non-structural keywords (a dataset label like
    // "Time"); structural keywords stay reserved.
    return t.kind == TokenKind::kIdent || t.kind == TokenKind::kTime;
  }

  Status ParseIdent(std::vector<std::string>* out) {
    if (!IsNameToken(Peek())) {
      return Status::InvalidArgument("sql: expected identifier at offset " +
                                     std::to_string(Peek().offset));
    }
    std::string name = Next().text;
    // Dotted series names like Sine.sine0.
    while (Peek().kind == TokenKind::kDot && IsNameToken(Peek(1))) {
      Next();
      name += "." + Next().text;
    }
    out->push_back(std::move(name));
    return Status::Ok();
  }

  Status ParseSelectItem(SelectItem* item) {
    if (Accept(TokenKind::kStar)) {
      item->kind = SelectItem::Kind::kStar;
      return Status::Ok();
    }
    if (!IsNameToken(Peek())) {
      return Status::InvalidArgument("sql: expected select item at offset " +
                                     std::to_string(Peek().offset));
    }
    // Could be: f(col), table.col <op> table.col, or a bare column.
    std::string first = Next().text;
    if (Accept(TokenKind::kLParen)) {
      item->kind = SelectItem::Kind::kAggregate;
      for (char& c : first) c = static_cast<char>(std::tolower(c));
      item->func = first;
      if (Accept(TokenKind::kStar)) {
        item->column = "*";
      } else if (IsNameToken(Peek())) {
        // Single column, or a qualified pair f(tbl.col, tbl.col) for the
        // two-series aggregates (CORR/COV).
        std::vector<std::string> segs{Next().text};
        while (Accept(TokenKind::kDot)) {
          if (!IsNameToken(Peek())) {
            return Status::InvalidArgument("sql: expected identifier after .");
          }
          segs.push_back(Next().text);
        }
        item->column = segs.back();
        if (segs.size() > 1) {
          segs.pop_back();
          item->left_table = Join(segs);
        }
        if (Accept(TokenKind::kComma)) {
          std::vector<std::string> rsegs;
          if (!IsNameToken(Peek())) {
            return Status::InvalidArgument("sql: expected second argument");
          }
          rsegs.push_back(Next().text);
          while (Accept(TokenKind::kDot)) {
            if (!IsNameToken(Peek())) {
              return Status::InvalidArgument(
                  "sql: expected identifier after .");
            }
            rsegs.push_back(Next().text);
          }
          if (rsegs.size() < 2) {
            return Status::InvalidArgument(
                "sql: second aggregate argument must be table.col");
          }
          rsegs.pop_back();
          item->right_table = Join(rsegs);
          if (item->left_table.empty()) {
            return Status::InvalidArgument(
                "sql: two-column aggregate needs qualified arguments");
          }
        }
      } else {
        return Status::InvalidArgument("sql: expected aggregate argument");
      }
      return Expect(TokenKind::kRParen, ")");
    }
    if (Peek().kind == TokenKind::kDot) {
      // Qualified: could be a long series name or table.col in a binary
      // projection. Collect segments; the last segment is the column.
      std::vector<std::string> segs{first};
      while (Accept(TokenKind::kDot)) {
        if (Peek().kind != TokenKind::kIdent &&
            Peek().kind != TokenKind::kTime) {
          return Status::InvalidArgument("sql: expected identifier after .");
        }
        segs.push_back(Next().text);
      }
      char op = 0;
      if (Accept(TokenKind::kPlus)) {
        op = '+';
      } else if (Accept(TokenKind::kMinus)) {
        op = '-';
      } else if (Accept(TokenKind::kStar)) {
        op = '*';
      }
      if (op == 0) {
        item->kind = SelectItem::Kind::kColumn;
        item->column = segs.back();
        return Status::Ok();
      }
      item->kind = SelectItem::Kind::kBinary;
      item->binary_op = op;
      item->column = segs.back();
      segs.pop_back();
      item->left_table = Join(segs);
      // Right side: table.col
      std::vector<std::string> rsegs;
      if (!IsNameToken(Peek())) {
        return Status::InvalidArgument("sql: expected right operand");
      }
      rsegs.push_back(Next().text);
      while (Accept(TokenKind::kDot)) {
        if (Peek().kind != TokenKind::kIdent &&
            Peek().kind != TokenKind::kTime) {
          return Status::InvalidArgument("sql: expected identifier after .");
        }
        rsegs.push_back(Next().text);
      }
      if (rsegs.size() < 2) {
        return Status::InvalidArgument("sql: right operand must be table.col");
      }
      rsegs.pop_back();  // drop the column
      item->right_table = Join(rsegs);
      return Status::Ok();
    }
    item->kind = SelectItem::Kind::kColumn;
    item->column = first;
    return Status::Ok();
  }

  Status ParsePredicates(std::vector<Comparison>* preds) {
    do {
      Comparison cmp;
      if (Peek().kind == TokenKind::kTime &&
          Peek(1).kind != TokenKind::kDot) {
        Next();
        cmp.column = Comparison::Column::kTime;
      } else if (IsNameToken(Peek())) {
        // Bare column, or qualified tbl.col (IsNameToken also admits a
        // keyword-named series like "Time.event_time", keeping its text).
        // A qualified column named TIME is the table's time column.
        bool last_is_time = Peek().kind == TokenKind::kTime;
        std::vector<std::string> segs{Next().text};
        while (Accept(TokenKind::kDot)) {
          if (!IsNameToken(Peek())) {
            return Status::InvalidArgument("sql: expected identifier after .");
          }
          last_is_time = Peek().kind == TokenKind::kTime;
          segs.push_back(Next().text);
        }
        cmp.column = segs.size() > 1 && last_is_time
                         ? Comparison::Column::kTime
                         : Comparison::Column::kValue;
        if (segs.size() > 1) {
          segs.pop_back();  // drop the column name
          cmp.lhs_table = Join(segs);
        }
      } else {
        return Status::InvalidArgument("sql: expected predicate column");
      }
      switch (Peek().kind) {
        case TokenKind::kLt:
          cmp.op = Comparison::Op::kLt;
          break;
        case TokenKind::kLe:
          cmp.op = Comparison::Op::kLe;
          break;
        case TokenKind::kGt:
          cmp.op = Comparison::Op::kGt;
          break;
        case TokenKind::kGe:
          cmp.op = Comparison::Op::kGe;
          break;
        case TokenKind::kEq:
          cmp.op = Comparison::Op::kEq;
          break;
        default:
          return Status::InvalidArgument("sql: expected comparison operator");
      }
      Next();
      if (cmp.column == Comparison::Column::kValue &&
          !cmp.lhs_table.empty() && IsNameToken(Peek())) {
        // Inter-column right side: tbl.col, a value column.
        bool rhs_is_time = Peek().kind == TokenKind::kTime;
        std::vector<std::string> rsegs{Next().text};
        while (Accept(TokenKind::kDot)) {
          if (!IsNameToken(Peek())) {
            return Status::InvalidArgument("sql: expected identifier after .");
          }
          rhs_is_time = Peek().kind == TokenKind::kTime;
          rsegs.push_back(Next().text);
        }
        if (rsegs.size() < 2) {
          return Status::InvalidArgument(
              "sql: inter-column predicate needs table.col on both sides");
        }
        if (rhs_is_time) {
          return Status::InvalidArgument(
              "sql: inter-column predicates compare value columns");
        }
        rsegs.pop_back();
        cmp.rhs_table = Join(rsegs);
      } else {
        ETSQP_RETURN_IF_ERROR(ExpectNumber(&cmp.literal));
      }
      preds->push_back(cmp);
    } while (Accept(TokenKind::kAnd));
    return Status::Ok();
  }

  static std::string Join(const std::vector<std::string>& segs) {
    std::string out;
    for (size_t i = 0; i < segs.size(); ++i) {
      if (i > 0) out += ".";
      out += segs[i];
    }
    return out;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SelectStatement> Parse(const std::string& query) {
  Result<std::vector<Token>> tokens = Lex(query);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.ParseStatement();
}

}  // namespace etsqp::sql
