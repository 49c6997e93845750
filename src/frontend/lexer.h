// Lexer for the CUDA C subset accepted by ParaLift. Handles CUDA
// qualifiers, the <<< >>> launch tokens, simple object-like #define
// substitution, and `#pragma omp parallel for` markers used by the
// reference OpenMP codes.
#pragma once

#include "support/diagnostics.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace paralift::frontend {

enum class Tok : uint8_t {
  Eof, Ident, IntLit, FloatLit,
  // punctuation
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  Comma, Semi, Dot, Question, Colon,
  // operators
  Plus, Minus, Star, Slash, Percent,
  Amp, Pipe, Caret, Tilde, Not,
  Shl, Shr, Lt, Le, Gt, Ge, EqEq, NotEq,
  AndAnd, OrOr,
  Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign,
  PlusPlus, MinusMinus,
  LaunchOpen, LaunchClose, // <<< >>>
  // keywords
  KwVoid, KwBool, KwInt, KwLong, KwFloat, KwDouble, KwUnsigned, KwConst,
  KwIf, KwElse, KwFor, KwWhile, KwDo, KwReturn, KwTrue, KwFalse,
  KwGlobal, KwDevice, KwHost, KwShared, KwStatic, KwInline, KwRestrict,
  KwDim3,
  PragmaOmpParallelFor, // one token for the whole pragma line prefix
};

struct Token {
  Tok kind;
  std::string text;   ///< identifier spelling / literal text
  int64_t intVal = 0;
  double floatVal = 0;
  bool isFloat32 = false; ///< literal had 'f' suffix
  SourceLoc loc;
  /// For PragmaOmpParallelFor: collapse(n) argument (1 when absent).
  int collapse = 1;
};

/// Tokenizes `source`. Object-like `#define NAME value` lines are applied
/// as textual substitutions of subsequent identifier tokens.
std::vector<Token> tokenize(const std::string &source,
                            DiagnosticEngine &diag);

} // namespace paralift::frontend
