// Per-test scratch file paths. gtest runs each test case in its own process
// under `ctest -j`, so a fixed path such as /tmp/x.bin is shared by tests
// running at the same time and one test's file overwrites another's. The
// path made here is unique per test case and process.
#ifndef BDM_TESTS_TEMP_PATH_H_
#define BDM_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace bdm {

/// `<gtest TempDir>bdm_<suite>.<test>_<pid><suffix>` for the running test
/// (parameterized names' '/' become '_').
inline std::string TempPath(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name =
      std::string(info->test_suite_name()) + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + "bdm_" + name + "_" +
         std::to_string(::getpid()) + suffix;
}

}  // namespace bdm

#endif  // BDM_TESTS_TEMP_PATH_H_
