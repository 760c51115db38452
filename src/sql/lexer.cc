#include "sql/lexer.h"

#include <cctype>
#include <charconv>

namespace etsqp::sql {

namespace {

TokenKind KeywordKind(const std::string& lower) {
  if (lower == "explain") return TokenKind::kExplain;
  if (lower == "analyze") return TokenKind::kAnalyze;
  if (lower == "select") return TokenKind::kSelect;
  if (lower == "from") return TokenKind::kFrom;
  if (lower == "where") return TokenKind::kWhere;
  if (lower == "and") return TokenKind::kAnd;
  if (lower == "sw") return TokenKind::kSw;
  if (lower == "union") return TokenKind::kUnion;
  if (lower == "order") return TokenKind::kOrder;
  if (lower == "by") return TokenKind::kBy;
  if (lower == "time") return TokenKind::kTime;
  return TokenKind::kIdent;
}

}  // namespace

Result<std::vector<Token>> Lex(const std::string& query) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = query.size();
  while (i < n) {
    char c = query[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.offset = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(query[j])) ||
                       query[j] == '_')) {
        ++j;
      }
      tok.text = query.substr(i, j - i);
      std::string lower = tok.text;
      for (char& ch : lower) ch = static_cast<char>(std::tolower(ch));
      tok.kind = KeywordKind(lower);
      // Keep the original spelling: keyword-named identifiers (e.g. a
      // series called "Time.event_time") stay resolvable.
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(query[i + 1])) &&
                (tokens.empty() ||
                 (tokens.back().kind != TokenKind::kNumber &&
                  tokens.back().kind != TokenKind::kIdent &&
                  tokens.back().kind != TokenKind::kRParen)))) {
      size_t j = i + (c == '-' ? 1 : 0);
      while (j < n && std::isdigit(static_cast<unsigned char>(query[j]))) ++j;
      tok.kind = TokenKind::kNumber;
      const std::from_chars_result parsed =
          std::from_chars(query.data() + i, query.data() + j, tok.number);
      if (parsed.ec != std::errc()) {
        return Status::InvalidArgument("sql: integer literal outside int64: " +
                                       query.substr(i, j - i));
      }
      i = j;
    } else {
      switch (c) {
        case '*':
          tok.kind = TokenKind::kStar;
          break;
        case '+':
          tok.kind = TokenKind::kPlus;
          break;
        case '-':
          tok.kind = TokenKind::kMinus;
          break;
        case ',':
          tok.kind = TokenKind::kComma;
          break;
        case '.':
          tok.kind = TokenKind::kDot;
          break;
        case '(':
          tok.kind = TokenKind::kLParen;
          break;
        case ')':
          tok.kind = TokenKind::kRParen;
          break;
        case ';':
          tok.kind = TokenKind::kSemicolon;
          break;
        case '=':
          tok.kind = TokenKind::kEq;
          break;
        case '<':
          if (i + 1 < n && query[i + 1] == '=') {
            tok.kind = TokenKind::kLe;
            ++i;
          } else {
            tok.kind = TokenKind::kLt;
          }
          break;
        case '>':
          if (i + 1 < n && query[i + 1] == '=') {
            tok.kind = TokenKind::kGe;
            ++i;
          } else {
            tok.kind = TokenKind::kGt;
          }
          break;
        default:
          return Status::InvalidArgument("sql: unexpected character '" +
                                         std::string(1, c) + "' at offset " +
                                         std::to_string(i));
      }
      ++i;
    }
    tokens.push_back(std::move(tok));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace etsqp::sql
