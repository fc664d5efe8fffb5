# The build's provenance stamp: the source tree's short git sha, plus
# "-dirty" when a tracked file differs from HEAD (edited or staged; what
# `git describe --dirty` calls dirty, so untracked files such as a
# compiler cache do not count), or "unknown" outside a git checkout. Run
# in script mode, two ways:
#
#   cmake -DSOURCE_DIR=<tree> -DSTAMP_HEADER=<file> -P BuildStamp.cmake
#     writes `#define NOCDR_GIT_SHA "<stamp>"` to <file>. The build runs
#     this every time (the nocdr_build_stamp target) and the file is
#     rewritten only when the stamp changed, so only
#     src/util/build_info.cpp recompiles, and only then.
#
#   cmake -DSOURCE_DIR=<tree> -DSERVE_BINARY=<nocdr_serve> -P BuildStamp.cmake
#     fails unless `nocdr_serve --version` names the tree's stamp now;
#     prints "SKIP:" outside a git checkout. This is the build_provenance
#     CTest test. It catches a build older than the last commit or than a
#     clean tree's first edit, not a later edit: every uncommitted state
#     of one commit has the same "<sha>-dirty" stamp.
#
# `--no-optional-locks` keeps `git status` from taking .git/index.lock,
# so a build cannot collide with a git command the user runs meanwhile.

function(nocdr_git_stamp out_var)
  execute_process(
    COMMAND git -C "${SOURCE_DIR}" rev-parse --short=12 HEAD
    OUTPUT_VARIABLE sha
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0 OR sha STREQUAL "")
    set(${out_var} "unknown" PARENT_SCOPE)
    return()
  endif()
  execute_process(
    COMMAND git -C "${SOURCE_DIR}" --no-optional-locks status --porcelain
            --untracked-files=no
    OUTPUT_VARIABLE status
    ERROR_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0 OR NOT status STREQUAL "")
    string(APPEND sha "-dirty")
  endif()
  set(${out_var} "${sha}" PARENT_SCOPE)
endfunction()

nocdr_git_stamp(stamp)

if(DEFINED STAMP_HEADER)
  set(content "#define NOCDR_GIT_SHA \"${stamp}\"\n")
  set(old "")
  if(EXISTS "${STAMP_HEADER}")
    file(READ "${STAMP_HEADER}" old)
  endif()
  if(NOT old STREQUAL content)
    file(WRITE "${STAMP_HEADER}" "${content}")
  endif()
elseif(DEFINED SERVE_BINARY)
  if(stamp STREQUAL "unknown")
    message("SKIP: ${SOURCE_DIR} is not a git checkout")
    return()
  endif()
  execute_process(
    COMMAND "${SERVE_BINARY}" --version
    OUTPUT_VARIABLE version
    OUTPUT_STRIP_TRAILING_WHITESPACE
    RESULT_VARIABLE rc)
  # BuildInfoLine: "nocdr_serve <stamp> (<compiler>, <build type>)".
  if(NOT rc EQUAL 0 OR NOT version MATCHES "^nocdr_serve ${stamp} \\(")
    message(FATAL_ERROR
      "nocdr_serve --version printed \"${version}\", but the tree's stamp "
      "is ${stamp}: rebuild to restamp")
  endif()
  message("nocdr_serve --version names the tree's stamp ${stamp}")
else()
  message(FATAL_ERROR "BuildStamp.cmake: set STAMP_HEADER or SERVE_BINARY")
endif()
