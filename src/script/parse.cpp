// The Tcl subset's grammar (see parse.hpp for the rules). One recursive-
// descent Parser reads script text into parse trees for the interpreter and
// the linter, and expression operands for the expr engine; parse_list reads
// Tcl lists. The expression lexer keeps only its operators, numbers and
// verbatim `{...}` strings.
#include "script/parse.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>

namespace pfi::script::parse {

namespace {

bool is_word_sep(char c) { return c == ' ' || c == '\t'; }
bool is_cmd_sep(char c) { return c == '\n' || c == '\r' || c == ';'; }
bool is_name_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

char backslash_subst(char c) {
  switch (c) {
    case 'n': return '\n';
    case 't': return '\t';
    case 'r': return '\r';
    case 'a': return '\a';
    case '0': return '\0';
    default: return c;  // \$ \[ \] \" \\ \{ \} ... -> literal
  }
}

/// Nesting of `[...]` and `$name(index)` deeper than this is a syntax error,
/// so hostile text cannot exhaust the stack. It sits above the evaluator's
/// depth guard (200 nested evaluations), which a nested `[...]` hits first.
constexpr int kMaxNesting = 256;

Part make_part(Part::Kind kind, std::string text = {}) {
  Part p;
  p.kind = kind;
  p.text = std::move(text);
  return p;
}

/// Appends one literal character, extending a trailing text part.
void append_text(std::vector<Part>& parts, char c) {
  if (parts.empty() || parts.back().kind != Part::Kind::kText) {
    parts.emplace_back();
  }
  parts.back().text += c;
}

/// Recursive-descent parser over one text, keeping line:col in step with
/// the position. Nested `[...]` scripts get a parser of their own.
class Parser {
 public:
  Parser(std::string_view text, int line, int col, int depth)
      : text_(text), line_(line), col_(col), depth_(depth) {}

  Script script() {
    Script out;
    while (skip_to_command()) {
      Command& cmd = out.commands.emplace_back();
      cmd.line = line_;
      cmd.col = col_;
      if (!command(cmd)) break;
    }
    out.error = std::move(error_);
    out.error_line = error_line_;
    out.error_col = error_col_;
    return out;
  }

  std::vector<Operand> operands() {
    std::vector<Operand> out;
    while (!at_end()) {
      const char c = peek();
      if (c == '\\') {
        advance();
        if (!at_end()) advance();
      } else if (c == '{') {
        int depth = 0;
        do {
          if (peek() == '{') ++depth;
          if (peek() == '}') --depth;
          advance();
        } while (!at_end() && depth > 0);
      } else if (c == '$' || c == '[' || c == '"') {
        Operand& op = out.emplace_back();
        op.begin = pos_;
        const bool ok = operand(op.word);
        op.end = pos_;
        if (!ok) break;
      } else {
        advance();
      }
    }
    return out;
  }

 private:
  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  /// Skip command separators, blank lines and comments. False at the end.
  bool skip_to_command() {
    while (!at_end()) {
      const char c = peek();
      if (is_word_sep(c) || is_cmd_sep(c)) {
        advance();
      } else if (c == '#') {
        while (!at_end() && peek() != '\n') advance();
      } else {
        return true;
      }
    }
    return false;
  }

  /// Records the first error of this text.
  void note_error(const std::string& msg, int line, int col) {
    if (!error_.empty()) return;
    error_ = msg;
    error_line_ = line;
    error_col_ = col;
  }

  /// A syntax error in the current word: it ends the word, the command and
  /// the script.
  bool fail(std::vector<Part>& parts, std::string msg, int line, int col) {
    note_error(msg, line, col);
    parts.push_back(make_part(Part::Kind::kError, std::move(msg)));
    return false;
  }

  bool command(Command& cmd) {
    while (true) {
      while (!at_end() && is_word_sep(peek())) advance();
      if (at_end() || is_cmd_sep(peek())) {
        if (!at_end()) advance();
        return true;
      }
      if (!word(cmd.words.emplace_back())) return false;
    }
  }

  bool word(Word& w) {
    w.line = line_;
    w.col = col_;
    if (peek() == '{') {
      w.kind = Word::Kind::kBraced;
      return braced(w);
    }
    if (peek() == '"') {
      w.kind = Word::Kind::kQuoted;
      return quoted(w);
    }
    const std::size_t start = pos_;
    bool ok = true;
    while (ok && !at_end() && !is_word_sep(peek()) && !is_cmd_sep(peek())) {
      ok = one(w.parts, w);
    }
    w.text = text_.substr(start, pos_ - start);
    return ok;
  }

  /// An expression operand: a quoted word, or one `$` / `[...]`.
  bool operand(Word& w) {
    w.line = line_;
    w.col = col_;
    if (peek() == '"') {
      w.kind = Word::Kind::kQuoted;
      return quoted(w);
    }
    const std::size_t start = pos_;
    const bool ok = one(w.parts, w);
    w.text = text_.substr(start, pos_ - start);
    return ok;
  }

  bool braced(Word& w) {
    advance();  // '{'
    const std::size_t start = pos_;
    int depth = 1;
    while (!at_end()) {
      const char c = peek();
      if (c == '\\' && pos_ + 1 < text_.size()) {
        advance();
        advance();
        continue;
      }
      if (c == '{') ++depth;
      if (c == '}' && --depth == 0) {
        w.text = text_.substr(start, pos_ - start);
        advance();
        if (!at_end() && !is_word_sep(peek()) && !is_cmd_sep(peek())) {
          return fail(w.parts, "extra characters after close-brace", line_,
                      col_);
        }
        w.parts.push_back(make_part(Part::Kind::kText, w.text));
        return true;
      }
      advance();
    }
    return fail(w.parts, "missing close-brace", w.line, w.col);
  }

  bool quoted(Word& w) {
    advance();  // '"'
    const std::size_t start = pos_;
    while (!at_end()) {
      if (peek() == '"') {
        w.text = text_.substr(start, pos_ - start);
        advance();
        return true;
      }
      if (!one(w.parts, w)) return false;
    }
    return fail(w.parts, "missing closing quote", w.line, w.col);
  }

  /// One character, backslash escape, `$` reference or `[...]` of a bare or
  /// quoted word (or of an array index) into `parts`.
  bool one(std::vector<Part>& parts, Word& w) {
    const char c = peek();
    if (c == '$') return var(parts, w);
    if (c == '[') return command_subst(parts, w);
    advance();
    if (c != '\\') {
      append_text(parts, c);
    } else if (at_end()) {
      append_text(parts, '\\');
    } else {
      const char next = advance();
      append_text(parts, next == '\n' ? ' ' : backslash_subst(next));
    }
    return true;
  }

  bool var(std::vector<Part>& parts, Word& w) {
    Part p = make_part(Part::Kind::kVar);
    p.line = line_;
    p.col = col_;
    advance();  // '$'
    if (!at_end() && peek() == '{') {
      advance();
      while (!at_end() && peek() != '}') p.text += advance();
      if (at_end()) {
        return fail(parts, "missing close-brace for ${name}", line_, col_);
      }
      advance();
    } else {
      while (!at_end() && is_name_char(peek())) p.text += advance();
      if (!p.text.empty() && !at_end() && peek() == '(') {
        advance();
        p.array = true;
        if (!nest(parts, p.line, p.col)) return false;
        bool ok = true;
        while (ok && !at_end() && peek() != ')') ok = one(p.index, w);
        --depth_;
        if (!ok || at_end()) {
          // Whatever the index held before the error still runs.
          std::move(p.index.begin(), p.index.end(), std::back_inserter(parts));
          return ok ? fail(parts, "missing ')' in array reference", line_,
                           col_)
                    : false;
        }
        advance();  // ')'
      }
    }
    if (p.text.empty()) {  // a lone '$' is literal
      append_text(parts, '$');
    } else {
      parts.push_back(std::move(p));
    }
    return true;
  }

  bool command_subst(std::vector<Part>& parts, Word& w) {
    advance();  // '['
    const std::size_t start = pos_;
    const int line = line_;
    const int col = col_;
    int depth = 1;
    while (!at_end()) {
      const char c = peek();
      if (c == '\\' && pos_ + 1 < text_.size()) {
        advance();
        advance();
        continue;
      }
      if (c == '[') ++depth;
      if (c == ']' && --depth == 0) break;
      advance();
    }
    if (at_end()) return fail(parts, "missing close-bracket", line_, col_);
    const std::string_view inner = text_.substr(start, pos_ - start);
    advance();  // ']'
    if (!nest(parts, line, col)) return false;
    Script nested = Parser{inner, line, col, depth_}.script();
    --depth_;
    // The inner script carries its own error and reports it only if the
    // evaluation gets that far; the outer text parses on.
    if (!nested.ok()) {
      note_error(nested.error, nested.error_line, nested.error_col);
    }
    Part p = make_part(Part::Kind::kCommand);
    p.script = w.nested.size();
    parts.push_back(std::move(p));
    w.nested.push_back(std::move(nested));
    return true;
  }

  bool nest(std::vector<Part>& parts, int line, int col) {
    if (++depth_ <= kMaxNesting) return true;
    --depth_;
    return fail(parts, "too many nested evaluations (infinite recursion?)",
                line, col);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_;
  int col_;
  int depth_;
  std::string error_;
  int error_line_ = 0;
  int error_col_ = 0;
};

void add_reads(const std::vector<Part>& parts, std::vector<VarRef>& out) {
  for (const Part& p : parts) {
    if (p.kind != Part::Kind::kVar) continue;
    add_reads(p.index, out);
    out.push_back({p.text, p.line, p.col});
  }
}

}  // namespace

bool Word::literal() const {
  return std::all_of(parts.begin(), parts.end(), [](const Part& p) {
    return p.kind == Part::Kind::kText;
  });
}

Script parse_script(std::string_view text, int line, int col) {
  return Parser{text, line, col, 0}.script();
}

std::vector<Operand> scan_expr(std::string_view text, int line, int col) {
  return Parser{text, line, col, 0}.operands();
}

std::vector<VarRef> reads(const Word& w) {
  std::vector<VarRef> out;
  add_reads(w.parts, out);
  return out;
}

std::string literal_value(const Word& w) {
  if (!w.literal()) return w.text;
  std::string out;
  for (const Part& p : w.parts) out += p.text;
  return out;
}

}  // namespace pfi::script::parse

namespace pfi::script {

std::vector<std::string> parse_list(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) != 0) {
      ++i;
    }
    if (i >= text.size()) break;
    std::string elem;
    if (text[i] == '{') {
      int depth = 1;
      ++i;
      while (i < text.size() && depth > 0) {
        if (text[i] == '{') ++depth;
        if (text[i] == '}') {
          --depth;
          if (depth == 0) break;
        }
        elem += text[i++];
      }
      if (i < text.size()) ++i;  // consume '}'
    } else if (text[i] == '"') {
      ++i;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < text.size()) {
          elem += parse::backslash_subst(text[i + 1]);
          i += 2;
          continue;
        }
        elem += text[i++];
      }
      if (i < text.size()) ++i;  // consume '"'
    } else {
      while (i < text.size() &&
             std::isspace(static_cast<unsigned char>(text[i])) == 0) {
        elem += text[i++];
      }
    }
    out.push_back(std::move(elem));
  }
  return out;
}

}  // namespace pfi::script
