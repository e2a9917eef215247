// Registered in CMakeLists.txt below; only the fixed temp name is flagged.
#include <string>

#include "test_util.h"

std::string Fixed() { return testing::TempDir() + "/fixed.ckpt"; }
std::string Unique() { return dar::testutil::TempPath("unique.ckpt"); }
// A comment quoting testing::TempDir() + "/x" stays silent.
int main() { return 0; }
