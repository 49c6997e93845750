// Tests for the textual IR parser (src/ir/parser.h): type spellings,
// direct snippets, attribute round trips, error reporting, and the
// print->parse->print fixed-point property over every Rodinia program
// (both the raw frontend output and the fully optimized module).
#include "ir/parser.h"

#include "driver/compiler.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "rodinia/rodinia.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace paralift;
using namespace paralift::ir;

//===----------------------------------------------------------------------===//
// parseType
//===----------------------------------------------------------------------===//

TEST(ParseTypeTest, Scalars) {
  EXPECT_EQ(parseType("i1"), Type::i1());
  EXPECT_EQ(parseType("i32"), Type::i32());
  EXPECT_EQ(parseType("i64"), Type::i64());
  EXPECT_EQ(parseType("f32"), Type::f32());
  EXPECT_EQ(parseType("f64"), Type::f64());
  EXPECT_EQ(parseType("index"), Type::index());
}

TEST(ParseTypeTest, StaticMemRef) {
  Type t = parseType("memref<4x8xf32>");
  ASSERT_TRUE(t.isMemRef());
  EXPECT_EQ(t.elemKind(), TypeKind::F32);
  EXPECT_EQ(t.shape(), (std::vector<int64_t>{4, 8}));
}

TEST(ParseTypeTest, DynamicMemRef) {
  Type t = parseType("memref<?x3xf64>");
  ASSERT_TRUE(t.isMemRef());
  EXPECT_EQ(t.shape(), (std::vector<int64_t>{Type::kDynamic, 3}));
}

TEST(ParseTypeTest, RankZeroMemRef) {
  Type t = parseType("memref<i32>");
  ASSERT_TRUE(t.isMemRef());
  EXPECT_EQ(t.rank(), 0u);
}

TEST(ParseTypeTest, IndexElementContainingX) {
  // "index" contains an 'x'; the shape splitter must not treat it as a
  // dimension separator.
  Type t = parseType("memref<4xindex>");
  ASSERT_TRUE(t.isMemRef());
  EXPECT_EQ(t.elemKind(), TypeKind::Index);
  EXPECT_EQ(t.shape(), (std::vector<int64_t>{4}));
}

TEST(ParseTypeTest, Malformed) {
  EXPECT_TRUE(parseType("").isNone());
  EXPECT_TRUE(parseType("q32").isNone());
  EXPECT_TRUE(parseType("memref<>").isNone());
  EXPECT_TRUE(parseType("memref<4x>").isNone());
  EXPECT_TRUE(parseType("memref<4x4>").isNone());
  EXPECT_TRUE(parseType("memref<abcxf32>").isNone());
}

//===----------------------------------------------------------------------===//
// Round trip of Type::str
//===----------------------------------------------------------------------===//

class TypeRoundTripTest : public ::testing::TestWithParam<Type> {};

TEST_P(TypeRoundTripTest, StrThenParseIsIdentity) {
  Type t = GetParam();
  EXPECT_EQ(parseType(t.str()), t);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TypeRoundTripTest,
    ::testing::Values(Type::i1(), Type::i32(), Type::i64(), Type::f32(),
                      Type::f64(), Type::index(),
                      Type::memref(TypeKind::F32, {}),
                      Type::memref(TypeKind::F32, {16}),
                      Type::memref(TypeKind::I32, {2, 3, 4}),
                      Type::memref(TypeKind::F64, {Type::kDynamic}),
                      Type::memref(TypeKind::Index, {Type::kDynamic, 7}),
                      Type::memref(TypeKind::I1, {1, Type::kDynamic, 3})));

//===----------------------------------------------------------------------===//
// Snippet parsing
//===----------------------------------------------------------------------===//

namespace {

/// Parses and verifies; fails the test on diagnostics.
OwnedModule parseOk(const std::string &text) {
  DiagnosticEngine diag;
  auto m = parseModule(text, diag);
  EXPECT_TRUE(m.has_value()) << diag.str();
  if (!m)
    return OwnedModule();
  EXPECT_TRUE(verifyOk(m->op())) << printOp(m->op());
  return std::move(*m);
}

std::string parseError(const std::string &text) {
  DiagnosticEngine diag;
  auto m = parseModule(text, diag);
  EXPECT_FALSE(m.has_value()) << "expected a parse failure";
  return diag.str();
}

} // namespace

TEST(ParserTest, EmptyModule) {
  OwnedModule m = parseOk("module {\n}");
  EXPECT_TRUE(m.get().body().empty());
}

TEST(ParserTest, FuncWithArithmetic) {
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f"} {
    [%0: i32, %1: i32]:
    %2 = addi(%0, %1) : i32
    %3 = muli(%2, %0) : i32
    return(%3)
  }
})");
  Op *f = m.get().lookupFunc("f");
  ASSERT_NE(f, nullptr);
  Block &body = f->region(0).front();
  EXPECT_EQ(body.numArgs(), 2u);
  EXPECT_EQ(body.size(), 3u);
  EXPECT_EQ(body.front()->kind(), OpKind::AddI);
}

TEST(ParserTest, AttributesOfEveryKind) {
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f", flag = true, count = -7, rate = 0.5,
        dims = [1, 2, 3]} {
    return
  }
})");
  Op *f = m.get().lookupFunc("f");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->attrs().getBool("flag"), true);
  EXPECT_EQ(f->attrs().getInt("count"), -7);
  EXPECT_EQ(f->attrs().getFloat("rate"), 0.5);
  EXPECT_EQ(f->attrs().getIntVec("dims"), (std::vector<int64_t>{1, 2, 3}));
}

TEST(ParserTest, FloatAttrFormsParse) {
  // The last six are every double edge case the printer has a special
  // spelling for: ±inf, nan, -nan, signed zero, and a denormal (std::stod
  // raises out_of_range on 4.9e-324, which once crashed the parser).
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f"} {
    %0 = const.float {value = 1.0} : f32
    %1 = const.float {value = 2.5e-3} : f32
    %2 = const.float {value = -0.25} : f64
    %3 = const.float {value = 1e+20} : f64
    %4 = const.float {value = inf} : f64
    %5 = const.float {value = -inf} : f64
    %6 = const.float {value = nan} : f64
    %7 = const.float {value = -nan} : f64
    %8 = const.float {value = -0.0} : f64
    %9 = const.float {value = 4.9406564584124654e-324} : f64
    return
  }
})");
  Op *f = m.get().lookupFunc("f");
  std::vector<double> v;
  for (Op *op : f->region(0).front())
    if (op->kind() == OpKind::ConstFloat)
      v.push_back(op->attrs().getFloat("value"));
  ASSERT_EQ(v.size(), 10u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.5e-3);
  EXPECT_DOUBLE_EQ(v[2], -0.25);
  EXPECT_DOUBLE_EQ(v[3], 1e+20);
  EXPECT_TRUE(std::isinf(v[4]) && v[4] > 0);
  EXPECT_TRUE(std::isinf(v[5]) && v[5] < 0);
  EXPECT_TRUE(std::isnan(v[6]) && !std::signbit(v[6]));
  EXPECT_TRUE(std::isnan(v[7]) && std::signbit(v[7]));
  EXPECT_TRUE(v[8] == 0.0 && std::signbit(v[8]));
  EXPECT_EQ(v[9], std::numeric_limits<double>::denorm_min());

  // print -> parse -> print is a fixed point for every spelling.
  std::string text = printOp(m.op());
  DiagnosticEngine diag;
  auto reparsed = parseModule(text, diag);
  ASSERT_TRUE(reparsed.has_value()) << diag.str() << "\n" << text;
  EXPECT_EQ(printOp(reparsed->op()), text);
}

TEST(ParserTest, NestedRegionsAndLoops) {
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f"} {
    [%0: memref<?xf32>]:
    %1 = const.int {value = 0} : index
    %2 = const.int {value = 8} : index
    %3 = const.int {value = 1} : index
    scf.parallel(%1, %2, %3) {dims = 1} {
      [%4: index]:
      %5 = memref.load(%0, %4) : f32
      %6 = addf(%5, %5) : f32
      memref.store(%6, %0, %4)
      yield
    }
    return
  }
})");
  Op *f = m.get().lookupFunc("f");
  ASSERT_NE(f, nullptr);
  Op *par = f->region(0).front().back()->prev();
  ASSERT_EQ(par->kind(), OpKind::ScfParallel);
  EXPECT_EQ(par->region(0).front().numArgs(), 1u);
}

TEST(ParserTest, IfWithEmptyElseRegion) {
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f"} {
    [%0: i1]:
    scf.if(%0) {
      yield
    } {}
    return
  }
})");
  Op *f = m.get().lookupFunc("f");
  Op *ifOp = f->region(0).front().front();
  ASSERT_EQ(ifOp->kind(), OpKind::ScfIf);
  ASSERT_EQ(ifOp->numRegions(), 2u);
  EXPECT_FALSE(ifOp->region(0).empty());
  EXPECT_TRUE(ifOp->region(1).empty());
}

TEST(ParserTest, MultiResultOp) {
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f"} {
    [%0: i1, %1: i32]:
    %2, %3 = scf.if(%0) : i32, i32 {
      yield(%1, %1)
    } {
      yield(%1, %1)
    }
    return(%2)
  }
})");
  Op *f = m.get().lookupFunc("f");
  Op *ifOp = f->region(0).front().front();
  EXPECT_EQ(ifOp->numResults(), 2u);
}

//===----------------------------------------------------------------------===//
// Errors
//===----------------------------------------------------------------------===//

TEST(ParserErrorTest, UndefinedValue) {
  std::string msg = parseError("module {\n func {sym_name = \"f\"} {\n"
                               "  return(%9)\n }\n}");
  EXPECT_NE(msg.find("undefined value %9"), std::string::npos) << msg;
}

TEST(ParserErrorTest, RedefinedValue) {
  std::string msg = parseError(R"(module {
  func {sym_name = "f"} {
    %0 = const.int {value = 1} : i32
    %0 = const.int {value = 2} : i32
    return
  }
})");
  EXPECT_NE(msg.find("redefinition"), std::string::npos) << msg;
}

TEST(ParserErrorTest, UnknownOp) {
  std::string msg = parseError("module {\n bogus.op\n}");
  EXPECT_NE(msg.find("unknown op"), std::string::npos) << msg;
}

TEST(ParserErrorTest, ResultTypeCountMismatch) {
  std::string msg = parseError(
      "module {\n func {sym_name = \"f\"} {\n"
      "  %0, %1 = const.int {value = 1} : i32\n  return\n }\n}");
  EXPECT_NE(msg.find("2 results but 1 types"), std::string::npos) << msg;
}

TEST(ParserErrorTest, UnterminatedRegion) {
  parseError("module {\n func {sym_name = \"f\"} {\n  return\n");
}

TEST(ParserErrorTest, UnterminatedString) {
  parseError("module {\n func {sym_name = \"f} {\n  return\n }\n}");
}

TEST(ParserErrorTest, TopLevelMustBeModule) {
  std::string msg = parseError("return");
  EXPECT_NE(msg.find("top-level op must be a module"), std::string::npos)
      << msg;
}

TEST(ParserErrorTest, TrailingGarbage) {
  parseError("module {\n}\nmodule {\n}");
}

TEST(ParserErrorTest, BadMemRefShape) {
  parseError("module {\n func {sym_name = \"f\"} {\n"
             "  [%0: memref<4x4>]:\n  return\n }\n}");
}

//===----------------------------------------------------------------------===//
// Print -> parse -> print fixed point over real programs
//===----------------------------------------------------------------------===//

namespace {

/// Asserts print(parse(print(m))) == print(m) and that the reparsed
/// module verifies.
void expectRoundTrip(ModuleOp m) {
  std::string text = printOp(m.op);
  DiagnosticEngine diag;
  auto reparsed = parseModule(text, diag);
  ASSERT_TRUE(reparsed.has_value()) << diag.str() << "\n" << text;
  EXPECT_TRUE(verifyOk(reparsed->op()));
  EXPECT_EQ(printOp(reparsed->op()), text);
}

struct RoundTripCase {
  std::string name;
  const char *source;
  bool optimized;
};

void PrintTo(const RoundTripCase &c, std::ostream *os) { *os << c.name; }

class RodiniaRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {
};

std::vector<RoundTripCase> allCases() {
  std::vector<RoundTripCase> cases;
  for (const auto &b : rodinia::suite()) {
    cases.push_back({b.id + "_frontend", b.cudaSource, false});
    cases.push_back({b.id + "_optimized", b.cudaSource, true});
    if (b.openmpSource)
      cases.push_back({b.id + "_openmp", b.openmpSource, true});
  }
  return cases;
}

} // namespace

TEST_P(RodiniaRoundTripTest, PrintParsePrintIsFixedPoint) {
  const RoundTripCase &c = GetParam();
  DiagnosticEngine diag;
  driver::CompileResult cc =
      c.optimized ? driver::compile(c.source, transforms::PipelineOptions{},
                                    diag)
                  : driver::compileForSimt(c.source, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  expectRoundTrip(cc.module.get());
}

INSTANTIATE_TEST_SUITE_P(
    AllRodinia, RodiniaRoundTripTest, ::testing::ValuesIn(allCases()),
    [](const ::testing::TestParamInfo<RoundTripCase> &info) {
      std::string n = info.param.name;
      for (char &ch : n)
        if (!std::isalnum(static_cast<unsigned char>(ch)))
          ch = '_';
      return n;
    });

//===----------------------------------------------------------------------===//
// Pass registry (transforms/registry.h)
//===----------------------------------------------------------------------===//

#include "transforms/registry.h"

TEST(PassRegistryTest, LookupKnownAndUnknown) {
  EXPECT_NE(transforms::lookupPass("canonicalize"), nullptr);
  EXPECT_NE(transforms::lookupPass("barrier-motion"), nullptr);
  EXPECT_NE(transforms::lookupPass("cpuify"), nullptr);
  EXPECT_EQ(transforms::lookupPass("no-such-pass"), nullptr);
}

TEST(PassRegistryTest, NamesAreUnique) {
  const auto &passes = transforms::passRegistry();
  for (size_t i = 0; i < passes.size(); ++i)
    for (size_t j = i + 1; j < passes.size(); ++j)
      EXPECT_NE(passes[i].name, passes[j].name);
}

TEST(PassRegistryTest, PipelineFoldsConstants) {
  OwnedModule m = parseOk(R"(module {
  func {sym_name = "f"} {
    %0 = const.int {value = 20} : i32
    %1 = const.int {value = 22} : i32
    %2 = addi(%0, %1) : i32
    return(%2)
  }
})");
  DiagnosticEngine diag;
  ASSERT_TRUE(transforms::runPassPipeline(m.get(), "canonicalize,cse", diag))
      << diag.str();
  std::string text = printOp(m.op());
  EXPECT_NE(text.find("value = 42"), std::string::npos) << text;
  EXPECT_EQ(text.find("addi"), std::string::npos) << text;
}

TEST(PassRegistryTest, UnknownPassReportsError) {
  OwnedModule m = parseOk("module {\n}");
  DiagnosticEngine diag;
  EXPECT_FALSE(transforms::runPassPipeline(m.get(), "cse,bogus", diag));
  EXPECT_NE(diag.str().find("unknown pass 'bogus'"), std::string::npos);
}

TEST(PassRegistryTest, EmptyPipelineIsNoOp) {
  OwnedModule m = parseOk("module {\n}");
  DiagnosticEngine diag;
  EXPECT_TRUE(transforms::runPassPipeline(m.get(), "", diag));
}
