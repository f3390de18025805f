# The root build resolves its revision-stamp script from the top-level
# source directory, which is perfbench/ when the library is built through
# perfbench/CMakeLists.txt.  Forward to the repository's script.
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/git_sha.cmake)
