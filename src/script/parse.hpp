// The grammar of the Tcl subset: the one parser of command syntax.
//
// parse_script() turns script text into commands, words and substitution
// parts, with source positions, and evaluates nothing. Interp runs these
// trees (cached by text, so a filter script is parsed once rather than on
// every message), and the linter's CFG builder reads the same trees. The
// rules:
//
//   * commands end at `;` or a newline; `#` where a command would start
//     comments out the rest of the line;
//   * words are separated by spaces and tabs and are one of
//       - `{...}`: verbatim, nesting counted, `\x` pairs skipped; a
//         separator or the end must follow the close-brace;
//       - `"..."` or bare: literal characters plus substitutions —
//         backslash escapes (`\n \t \r \a \0`, backslash-newline is a
//         space, any other `\x` is `x`), `$name`, `${name}`,
//         `$name(index)` whose index substitutes in turn, and `[script]`,
//         whose extent is found by counting brackets (skipping `\x`)
//         before the inner text is parsed as a script of its own.
//
// A syntax error does not discard the script. The tree keeps every command,
// word and part before the error, and the failing word ends in a kError
// part, so evaluating the tree runs exactly what precedes the error and then
// reports it. Script::error names the first error, nested ones included,
// for tools that only want to know whether the text parses.
//
// `expr` operands that use the command grammar (`$`, `[...]`, `"..."`) are
// read by scan_expr() with the same rules; the expression lexer keeps the
// operators.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace pfi::script {

/// Parse a string as a Tcl list (whitespace-separated, braces group).
std::vector<std::string> parse_list(std::string_view text);

}  // namespace pfi::script

namespace pfi::script::parse {

struct Script;

/// One piece of a word's value, in evaluation order.
struct Part {
  enum class Kind { kText, kVar, kCommand, kError };
  Kind kind = Kind::kText;
  /// kText: the characters, escapes applied. kVar: the variable name (an
  /// array's name for `$a(i)`). kError: the syntax error's message.
  std::string text;
  /// kVar: `$name(index)`; the element is name(<index substituted>).
  bool array = false;
  std::vector<Part> index;
  /// kCommand: the substituted script, as an index into Word::nested.
  std::size_t script = 0;
  /// kVar: where the `$` is.
  int line = 1;
  int col = 1;
};

/// One variable read: a kVar part's name and position.
struct VarRef {
  std::string name;
  int line = 1;
  int col = 1;
};

/// One word of a command, unsubstituted.
struct Word {
  enum class Kind { kBare, kQuoted, kBraced };
  Kind kind = Kind::kBare;
  /// Raw source content: braces/quotes stripped, substitutions unresolved.
  std::string text;
  int line = 1;
  int col = 1;
  /// The value, piece by piece. A braced word is one kText part.
  std::vector<Part> parts;
  /// Every `[...]` in the word, array indexes included, in source order.
  std::vector<Script> nested;

  /// True when the word's value is known without evaluating anything.
  [[nodiscard]] bool literal() const;
};

struct Command {
  std::vector<Word> words;
  int line = 1;
  int col = 1;
};

struct Script {
  std::vector<Command> commands;
  std::string error;  // first syntax error, nested ones included
  int error_line = 0;
  int error_col = 0;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parse a script without evaluating anything. `line`/`col` anchor the
/// first character, so bodies cut out of a larger file keep absolute
/// positions.
Script parse_script(std::string_view text, int line = 1, int col = 1);

/// An expression operand in the command grammar — a `$` reference, a
/// `[...]` substitution or a `"..."` string — spanning [begin, end) of the
/// scanned text.
struct Operand {
  std::size_t begin = 0;
  std::size_t end = 0;
  Word word;
};

/// Every such operand of expression text, in order. `{...}` strings are
/// skipped the way the expression lexer reads them (verbatim, nesting
/// counted); scanning stops after a malformed operand.
std::vector<Operand> scan_expr(std::string_view text, int line = 1,
                               int col = 1);

/// Every variable a word reads, array index reads before the array.
std::vector<VarRef> reads(const Word& w);

/// The value of a literal() word: its text parts joined. Any other word
/// gives its raw text.
std::string literal_value(const Word& w);

}  // namespace pfi::script::parse
