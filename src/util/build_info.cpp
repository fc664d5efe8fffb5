#include "util/build_info.h"

// The build writes NOCDR_GIT_SHA into this header on every build
// (cmake/BuildStamp.cmake), and CMake defines the other three for this
// translation unit only (set_source_files_properties in
// CMakeLists.txt). The fallbacks keep the file compiling under any
// other build driver.
#if __has_include("nocdr_build_stamp.h")
#include "nocdr_build_stamp.h"
#endif
#ifndef NOCDR_GIT_SHA
#define NOCDR_GIT_SHA "unknown"
#endif
#ifndef NOCDR_COMPILER_ID
#define NOCDR_COMPILER_ID "unknown"
#endif
#ifndef NOCDR_CXX_FLAGS
#define NOCDR_CXX_FLAGS ""
#endif
#ifndef NOCDR_BUILD_TYPE
#define NOCDR_BUILD_TYPE ""
#endif

namespace nocdr {

const BuildInfo& GetBuildInfo() {
  static const BuildInfo info{
      NOCDR_GIT_SHA,
      NOCDR_COMPILER_ID,
      NOCDR_CXX_FLAGS,
      NOCDR_BUILD_TYPE,
  };
  return info;
}

JsonObject BuildProvenanceJson() {
  const BuildInfo& info = GetBuildInfo();
  JsonObject json;
  json.Set("git_sha", info.git_sha)
      .Set("compiler", info.compiler)
      .Set("compiler_flags", info.compiler_flags)
      .Set("build_type", info.build_type);
  return json;
}

std::string BuildInfoLine(const std::string& tool_name) {
  const BuildInfo& info = GetBuildInfo();
  std::string line = tool_name + " " + info.git_sha + " (" + info.compiler;
  if (!info.build_type.empty()) {
    line += ", " + info.build_type;
  }
  line += ")";
  return line;
}

}  // namespace nocdr
