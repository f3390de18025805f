// Unit tests for the compile-and-dlopen JIT runtime.
#include <gtest/gtest.h>

#include <filesystem>

#include "codegen/emit.hpp"
#include "jit/jit.hpp"

namespace {

using flint::codegen::SourceFile;
using flint::jit::compile;
using flint::jit::JitOptions;

TEST(Jit, CompilesAndResolvesSymbol) {
  const std::vector<SourceFile> sources{
      {"f.c", "int forty_two(void) { return 42; }\n"}};
  const auto module = compile(sources);
  auto* fn = module.function<int(void)>("forty_two");
  EXPECT_EQ(fn(), 42);
  EXPECT_GT(module.object_size(), 0u);
}

TEST(Jit, MissingSymbolThrows) {
  const std::vector<SourceFile> sources{{"f.c", "int f(void) { return 1; }\n"}};
  const auto module = compile(sources);
  EXPECT_THROW((void)module.raw_symbol("nope"), std::runtime_error);
}

TEST(Jit, CompileErrorCarriesDiagnostics) {
  const std::vector<SourceFile> sources{{"bad.c", "int f(void) { syntax !!! }\n"}};
  try {
    (void)compile(sources);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("compilation failed"), std::string::npos);
    EXPECT_NE(what.find("error"), std::string::npos) << what;
  }
}

TEST(Jit, EmptySourcesThrow) {
  EXPECT_THROW((void)compile(std::vector<SourceFile>{}), std::invalid_argument);
}

TEST(Jit, BadOptLevelThrows) {
  const std::vector<SourceFile> sources{{"f.c", "int f(void){return 0;}\n"}};
  JitOptions opt;
  opt.opt_level = 9;
  EXPECT_THROW((void)compile(sources, opt), std::invalid_argument);
}

TEST(Jit, UnsafeFlagRejected) {
  const std::vector<SourceFile> sources{{"f.c", "int f(void){return 0;}\n"}};
  JitOptions opt;
  opt.extra_flags = {"-DX=1; rm -rf /"};
  EXPECT_THROW((void)compile(sources, opt), std::invalid_argument);
}

TEST(Jit, UnsafeSourceNameRejected) {
  const std::vector<SourceFile> sources{{"a b.c", "int f(void){return 0;}\n"}};
  EXPECT_THROW((void)compile(sources), std::invalid_argument);
}

TEST(Jit, ScratchDirRemovedOnDestruction) {
  std::string dir;
  {
    const std::vector<SourceFile> sources{{"f.c", "int f(void){return 7;}\n"}};
    const auto module = compile(sources);
    dir = module.dir();
    EXPECT_TRUE(std::filesystem::exists(dir));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Jit, KeepArtifactsLeavesSourcesOnDisk) {
  std::string dir;
  {
    const std::vector<SourceFile> sources{{"f.c", "int f(void){return 7;}\n"}};
    JitOptions opt;
    opt.keep_artifacts = true;
    const auto module = compile(sources, opt);
    dir = module.dir();
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/f.c"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/module.so"));
  std::filesystem::remove_all(dir);
}

TEST(Jit, MixedCAndAssemblySources) {
  const std::vector<SourceFile> sources{
      {"tree.s",
       "\t.text\n\t.globl\tasm_three\n\t.type\tasm_three, @function\n"
       "asm_three:\n\tmovl\t$3, %eax\n\tret\n"
       "\t.section\t.note.GNU-stack,\"\",@progbits\n"},
      {"driver.c",
       "extern int asm_three(void);\n"
       "int via_asm(void) { return asm_three() + 1; }\n"}};
  const auto module = compile(sources);
  EXPECT_EQ(module.function<int(void)>("via_asm")(), 4);
}

TEST(Jit, MoveTransfersOwnership) {
  const std::vector<SourceFile> sources{{"f.c", "int f(void){return 9;}\n"}};
  auto a = compile(sources);
  const std::string dir = a.dir();
  auto b = std::move(a);
  EXPECT_EQ(b.function<int(void)>("f")(), 9);
  EXPECT_EQ(b.dir(), dir);
}

}  // namespace
