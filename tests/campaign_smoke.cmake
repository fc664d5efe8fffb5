# One bench smoke CTest test (see CMakeLists.txt). Runs any bench BIN
# with ARGS in WORKDIR and passes iff it exits with EXPECT_EXIT and,
# when DIGEST is set, prints "digest DIGEST".
#   cmake -DBIN=... "-DARGS=..." -DWORKDIR=... -DEXPECT_EXIT=0
#         [-DDIGEST=hex] -P campaign_smoke.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BIN}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT exit_code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exited ${exit_code}, expected ${EXPECT_EXIT}")
endif()
if(DIGEST AND NOT out MATCHES "digest ${DIGEST}")
  message(FATAL_ERROR "did not print digest ${DIGEST}")
endif()
