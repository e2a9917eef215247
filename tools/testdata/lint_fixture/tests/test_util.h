// Allowlisted: the one helper that builds paths under TempDir().
#include <string>

inline std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}
