// Expression engine for the `expr` command and for `if`/`while`/`for`
// conditions. Substitutes its own `$var`, `[cmd]` and `"..."` operands so
// that braced conditions like {$count < 30} re-substitute on every loop
// iteration, as in real Tcl. Those operands follow the command grammar:
// parse::scan_expr reads them (once per expression text, cached) and this
// lexer handles the operators between them.
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "script/interp.hpp"

namespace pfi::script {

namespace {

struct ExprError {
  std::string msg;
};

}  // namespace

class ExprParser {
 public:
  ExprParser(Interp& interp, std::string_view text,
             const std::vector<parse::Operand>& operands)
      : interp_(interp), text_(text), operands_(operands) {}

  ExprValue parse() {
    ExprValue v = ternary();
    skip_ws();
    if (pos_ < text_.size()) {
      throw ExprError{"syntax error in expression near \"" +
                      std::string(text_.substr(pos_)) + "\""};
    }
    return v;
  }

 private:
  // --- lexer helpers -----------------------------------------------------
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool match(std::string_view op) {
    skip_ws();
    if (text_.substr(pos_, op.size()) == op) {
      // Avoid matching "<" when the text is "<<" or "<=".
      if (op.size() == 1 && pos_ + 1 < text_.size()) {
        const char a = op[0];
        const char b = text_[pos_ + 1];
        if ((a == '<' || a == '>') && (b == a || b == '=')) return false;
        if ((a == '=' || a == '!') && b == '=') return false;
        if ((a == '&' && b == '&') || (a == '|' && b == '|')) return false;
      }
      pos_ += op.size();
      return true;
    }
    return false;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  // --- grammar (lowest to highest precedence) -----------------------------
  ExprValue ternary() {
    ExprValue cond = logical_or();
    skip_ws();
    if (match("?")) {
      ExprValue a = ternary();
      skip_ws();
      if (!match(":")) throw ExprError{"expected ':' in ?: expression"};
      ExprValue b = ternary();
      return cond.truthy() ? a : b;
    }
    return cond;
  }

  ExprValue logical_or() {
    ExprValue v = logical_and();
    while (true) {
      skip_ws();
      if (match("||")) {
        // No short-circuit side effects to worry about: operands are values.
        ExprValue rhs = logical_and();
        v = ExprValue::from_bool(v.truthy() || rhs.truthy());
      } else {
        return v;
      }
    }
  }

  ExprValue logical_and() {
    ExprValue v = bit_or();
    while (true) {
      skip_ws();
      if (match("&&")) {
        ExprValue rhs = bit_or();
        v = ExprValue::from_bool(v.truthy() && rhs.truthy());
      } else {
        return v;
      }
    }
  }

  ExprValue bit_or() {
    ExprValue v = bit_xor();
    while (true) {
      skip_ws();
      if (peek() == '|' && text_.substr(pos_, 2) != "||") {
        ++pos_;
        ExprValue rhs = bit_xor();
        v = ExprValue::from_int(to_int(v) | to_int(rhs));
      } else {
        return v;
      }
    }
  }

  ExprValue bit_xor() {
    ExprValue v = bit_and();
    while (true) {
      skip_ws();
      if (peek() == '^') {
        ++pos_;
        ExprValue rhs = bit_and();
        v = ExprValue::from_int(to_int(v) ^ to_int(rhs));
      } else {
        return v;
      }
    }
  }

  ExprValue bit_and() {
    ExprValue v = equality();
    while (true) {
      skip_ws();
      if (peek() == '&' && text_.substr(pos_, 2) != "&&") {
        ++pos_;
        ExprValue rhs = equality();
        v = ExprValue::from_int(to_int(v) & to_int(rhs));
      } else {
        return v;
      }
    }
  }

  ExprValue equality() {
    ExprValue v = relational();
    while (true) {
      skip_ws();
      if (match("==")) {
        v = ExprValue::from_bool(compare(v, relational()) == 0);
      } else if (match("!=")) {
        v = ExprValue::from_bool(compare(v, relational()) != 0);
      } else if (word_op("eq")) {
        v = ExprValue::from_bool(v.str() == relational().str());
      } else if (word_op("ne")) {
        v = ExprValue::from_bool(v.str() != relational().str());
      } else {
        return v;
      }
    }
  }

  ExprValue relational() {
    ExprValue v = shift();
    while (true) {
      skip_ws();
      if (match("<=")) {
        v = ExprValue::from_bool(compare(v, shift()) <= 0);
      } else if (match(">=")) {
        v = ExprValue::from_bool(compare(v, shift()) >= 0);
      } else if (match("<")) {
        v = ExprValue::from_bool(compare(v, shift()) < 0);
      } else if (match(">")) {
        v = ExprValue::from_bool(compare(v, shift()) > 0);
      } else {
        return v;
      }
    }
  }

  ExprValue shift() {
    ExprValue v = additive();
    while (true) {
      skip_ws();
      if (match("<<")) {
        v = ExprValue::from_int(to_int(v) << (to_int(additive()) & 63));
      } else if (match(">>")) {
        v = ExprValue::from_int(to_int(v) >> (to_int(additive()) & 63));
      } else {
        return v;
      }
    }
  }

  ExprValue additive() {
    ExprValue v = multiplicative();
    while (true) {
      skip_ws();
      if (match("+")) {
        v = arith(v, multiplicative(), '+');
      } else if (match("-")) {
        v = arith(v, multiplicative(), '-');
      } else {
        return v;
      }
    }
  }

  ExprValue multiplicative() {
    ExprValue v = unary();
    while (true) {
      skip_ws();
      if (match("*")) {
        v = arith(v, unary(), '*');
      } else if (match("/")) {
        v = arith(v, unary(), '/');
      } else if (match("%")) {
        const std::int64_t rhs = to_int(unary());
        if (rhs == 0) throw ExprError{"divide by zero"};
        v = ExprValue::from_int(to_int(v) % rhs);
      } else {
        return v;
      }
    }
  }

  ExprValue unary() {
    skip_ws();
    if (match("!")) return ExprValue::from_bool(!unary().truthy());
    if (match("~")) return ExprValue::from_int(~to_int(unary()));
    if (match("-")) {
      ExprValue v = unary();
      if (v.kind == ExprValue::Kind::kDouble) {
        return ExprValue::from_double(-v.d);
      }
      return ExprValue::from_int(-to_int(v));
    }
    if (match("+")) return unary();
    return primary();
  }

  ExprValue primary() {
    skip_ws();
    if (pos_ >= text_.size()) throw ExprError{"unexpected end of expression"};
    const char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      ExprValue v = ternary();
      skip_ws();
      if (!match(")")) throw ExprError{"missing ')'"};
      return v;
    }
    if (c == '$' || c == '[' || c == '"') return operand(c);
    if (c == '{') return braced_string();
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.') {
      return number();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      return word_or_function();
    }
    throw ExprError{"unexpected character '" + std::string(1, c) +
                    "' in expression"};
  }

  ExprValue number() {
    const std::size_t start = pos_;
    if (text_.substr(pos_, 2) == "0x" || text_.substr(pos_, 2) == "0X") {
      pos_ += 2;
      while (pos_ < text_.size() &&
             std::isxdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
      }
    } else {
      bool seen_dot = false;
      bool seen_exp = false;
      while (pos_ < text_.size()) {
        const char c = text_[pos_];
        if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
          ++pos_;
        } else if (c == '.' && !seen_dot && !seen_exp) {
          seen_dot = true;
          ++pos_;
        } else if ((c == 'e' || c == 'E') && !seen_exp) {
          seen_exp = true;
          ++pos_;
          if (pos_ < text_.size() &&
              (text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
          }
        } else {
          break;
        }
      }
    }
    ExprValue v = ExprValue::parse(text_.substr(start, pos_ - start));
    if (!v.is_numeric()) throw ExprError{"malformed number"};
    return v;
  }

  /// The scanned operand starting here. scan_expr skips exactly what this
  /// lexer skips (including `{...}` strings), so the two stay aligned.
  ExprValue operand(char c) {
    if (next_ == operands_.size() || operands_[next_].begin != pos_) {
      throw ExprError{"syntax error in expression near \"" +
                      std::string(text_.substr(pos_)) + "\""};
    }
    const parse::Word& w = operands_[next_].word;
    pos_ = operands_[next_++].end;
    if (c == '$' && w.literal()) {  // a lone '$' names no variable
      throw ExprError{"can't read \"\": no such variable"};
    }
    std::string value;
    Result r = interp_.subst(w, w.parts, value);
    if (r.is_error()) throw ExprError{r.value};
    if (c == '"') return ExprValue::from_string(std::move(value));
    return ExprValue::parse(value);
  }

  ExprValue braced_string() {
    ++pos_;  // '{'
    std::string out;
    int depth = 1;
    while (pos_ < text_.size()) {
      if (text_[pos_] == '{') ++depth;
      if (text_[pos_] == '}') {
        --depth;
        if (depth == 0) break;
      }
      out += text_[pos_++];
    }
    if (pos_ >= text_.size()) throw ExprError{"missing close-brace"};
    ++pos_;
    return ExprValue::from_string(std::move(out));
  }

  ExprValue word_or_function() {
    std::string name;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '_')) {
      name += text_[pos_++];
    }
    skip_ws();
    if (peek() == '(') {
      ++pos_;
      std::vector<ExprValue> args;
      skip_ws();
      if (peek() != ')') {
        args.push_back(ternary());
        skip_ws();
        while (match(",")) {
          args.push_back(ternary());
          skip_ws();
        }
      }
      if (!match(")")) throw ExprError{"missing ')' in function call"};
      return call_function(name, args);
    }
    if (name == "true" || name == "yes" || name == "on") {
      return ExprValue::from_bool(true);
    }
    if (name == "false" || name == "no" || name == "off") {
      return ExprValue::from_bool(false);
    }
    if (name == "eq" || name == "ne") {
      // handled by equality(); reaching here means misplaced operator
      throw ExprError{"misplaced operator \"" + name + "\""};
    }
    // Bare words are treated as string literals (lenient extension).
    return ExprValue::from_string(std::move(name));
  }

  ExprValue call_function(const std::string& name,
                          const std::vector<ExprValue>& args) {
    auto need = [&](std::size_t n) {
      if (args.size() != n) {
        throw ExprError{"wrong # args for function \"" + name + "\""};
      }
    };
    if (name == "abs") {
      need(1);
      if (args[0].kind == ExprValue::Kind::kDouble) {
        return ExprValue::from_double(std::fabs(args[0].d));
      }
      return ExprValue::from_int(std::llabs(to_int(args[0])));
    }
    if (name == "int") {
      need(1);
      return ExprValue::from_int(
          static_cast<std::int64_t>(args[0].as_double()));
    }
    if (name == "double") {
      need(1);
      return ExprValue::from_double(args[0].as_double());
    }
    if (name == "round") {
      need(1);
      return ExprValue::from_int(
          static_cast<std::int64_t>(std::llround(args[0].as_double())));
    }
    if (name == "floor") {
      need(1);
      return ExprValue::from_double(std::floor(args[0].as_double()));
    }
    if (name == "ceil") {
      need(1);
      return ExprValue::from_double(std::ceil(args[0].as_double()));
    }
    if (name == "sqrt") {
      need(1);
      return ExprValue::from_double(std::sqrt(args[0].as_double()));
    }
    if (name == "exp") {
      need(1);
      return ExprValue::from_double(std::exp(args[0].as_double()));
    }
    if (name == "log") {
      need(1);
      return ExprValue::from_double(std::log(args[0].as_double()));
    }
    if (name == "pow") {
      need(2);
      return ExprValue::from_double(
          std::pow(args[0].as_double(), args[1].as_double()));
    }
    if (name == "fmod") {
      need(2);
      return ExprValue::from_double(
          std::fmod(args[0].as_double(), args[1].as_double()));
    }
    if (name == "min" || name == "max") {
      if (args.empty()) {
        throw ExprError{"wrong # args for function \"" + name + "\""};
      }
      ExprValue best = args[0];
      for (std::size_t i = 1; i < args.size(); ++i) {
        const int c = compare(args[i], best);
        if ((name == "min" && c < 0) || (name == "max" && c > 0)) {
          best = args[i];
        }
      }
      return best;
    }
    throw ExprError{"unknown function \"" + name + "\""};
  }

  // --- value helpers -------------------------------------------------------
  static std::int64_t to_int(const ExprValue& v) {
    switch (v.kind) {
      case ExprValue::Kind::kInt: return v.i;
      case ExprValue::Kind::kDouble: return static_cast<std::int64_t>(v.d);
      case ExprValue::Kind::kString:
        throw ExprError{"expected integer but got \"" + v.s + "\""};
    }
    return 0;
  }

  static int compare(const ExprValue& a, const ExprValue& b) {
    if (a.is_numeric() && b.is_numeric()) {
      if (a.kind == ExprValue::Kind::kInt &&
          b.kind == ExprValue::Kind::kInt) {
        return a.i < b.i ? -1 : (a.i > b.i ? 1 : 0);
      }
      const double x = a.as_double();
      const double y = b.as_double();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    const std::string x = a.str();
    const std::string y = b.str();
    return x < y ? -1 : (x > y ? 1 : 0);
  }

  static ExprValue arith(const ExprValue& a, const ExprValue& b, char op) {
    if (a.kind == ExprValue::Kind::kInt && b.kind == ExprValue::Kind::kInt) {
      switch (op) {
        case '+': return ExprValue::from_int(a.i + b.i);
        case '-': return ExprValue::from_int(a.i - b.i);
        case '*': return ExprValue::from_int(a.i * b.i);
        case '/':
          if (b.i == 0) throw ExprError{"divide by zero"};
          // Tcl floors integer division toward negative infinity.
          {
            std::int64_t q = a.i / b.i;
            if ((a.i % b.i != 0) && ((a.i < 0) != (b.i < 0))) --q;
            return ExprValue::from_int(q);
          }
        default: break;
      }
    }
    if (!a.is_numeric() || !b.is_numeric()) {
      throw ExprError{"can't use non-numeric string as operand of \"" +
                      std::string(1, op) + "\""};
    }
    const double x = a.as_double();
    const double y = b.as_double();
    switch (op) {
      case '+': return ExprValue::from_double(x + y);
      case '-': return ExprValue::from_double(x - y);
      case '*': return ExprValue::from_double(x * y);
      case '/':
        if (y == 0.0) throw ExprError{"divide by zero"};
        return ExprValue::from_double(x / y);
      default: break;
    }
    throw ExprError{"bad arithmetic operator"};
  }

  bool word_op(std::string_view op) {
    skip_ws();
    if (text_.substr(pos_, op.size()) == op) {
      const std::size_t after = pos_ + op.size();
      if (after >= text_.size() ||
          std::isspace(static_cast<unsigned char>(text_[after])) != 0) {
        pos_ = after;
        return true;
      }
    }
    return false;
  }

  Interp& interp_;
  std::string_view text_;
  const std::vector<parse::Operand>& operands_;
  std::size_t next_ = 0;  // the next operand the lexer will reach
  std::size_t pos_ = 0;
};

Result Interp::eval_expr(std::string_view expr) {
  std::vector<parse::Operand> scratch;
  const auto& operands =
      parsed(exprs_, expr, scratch,
             [](std::string_view text) { return parse::scan_expr(text); });
  try {
    ExprParser parser{*this, expr, operands};
    return Result::ok(parser.parse().str());
  } catch (const ExprError& e) {
    return Result::error(e.msg);
  }
}

// ---------------------------------------------------------------------------
// ExprValue
// ---------------------------------------------------------------------------

ExprValue ExprValue::from_int(std::int64_t v) {
  ExprValue e;
  e.kind = Kind::kInt;
  e.i = v;
  return e;
}

ExprValue ExprValue::from_double(double v) {
  ExprValue e;
  e.kind = Kind::kDouble;
  e.d = v;
  return e;
}

ExprValue ExprValue::from_string(std::string v) {
  ExprValue e;
  e.kind = Kind::kString;
  e.s = std::move(v);
  return e;
}

double ExprValue::as_double() const {
  switch (kind) {
    case Kind::kInt: return static_cast<double>(i);
    case Kind::kDouble: return d;
    case Kind::kString: return 0.0;
  }
  return 0.0;
}

bool ExprValue::truthy() const {
  switch (kind) {
    case Kind::kInt: return i != 0;
    case Kind::kDouble: return d != 0.0;
    case Kind::kString: return !s.empty() && s != "0" && s != "false";
  }
  return false;
}

std::string ExprValue::str() const {
  switch (kind) {
    case Kind::kInt: return std::to_string(i);
    case Kind::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.12g", d);
      std::string out = buf;
      // Keep doubles visually distinct from ints (Tcl prints 2.0, not 2).
      if (out.find_first_of(".eEnN") == std::string::npos) out += ".0";
      return out;
    }
    case Kind::kString: return s;
  }
  return {};
}

ExprValue ExprValue::parse(std::string_view text) {
  // Trim surrounding whitespace.
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1])) != 0) {
    --e;
  }
  const std::string_view t = text.substr(b, e - b);
  if (t.empty()) return from_string(std::string{text});

  // Try integer (decimal or 0x hex).
  {
    std::int64_t v = 0;
    const char* first = t.data();
    const char* last = t.data() + t.size();
    std::from_chars_result r{};
    if (t.size() > 2 && (t.substr(0, 2) == "0x" || t.substr(0, 2) == "0X")) {
      r = std::from_chars(first + 2, last, v, 16);
    } else if (t.size() > 3 && t[0] == '-' &&
               (t.substr(1, 2) == "0x" || t.substr(1, 2) == "0X")) {
      r = std::from_chars(first + 3, last, v, 16);
      v = -v;
    } else {
      r = std::from_chars(first, last, v, 10);
    }
    if (r.ec == std::errc{} && r.ptr == last) return from_int(v);
  }
  // Try double.
  {
    double v = 0.0;
    const char* first = t.data();
    const char* last = t.data() + t.size();
    auto r = std::from_chars(first, last, v);
    if (r.ec == std::errc{} && r.ptr == last) return from_double(v);
  }
  return from_string(std::string{text});
}

}  // namespace pfi::script
