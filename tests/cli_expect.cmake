# Runs one CLI command and checks its exit code and that it printed
# nothing on stdout (diagnostics belong on stderr):
#
#   cmake -DCOMMAND=<program> "-DARGS=<arguments>" -DEXIT_CODE=<n> -P cli_expect.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${COMMAND} ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL EXIT_CODE)
  message(FATAL_ERROR "exit code ${code}, expected ${EXIT_CODE}\nstderr:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "expected no stdout, got:\n${out}")
endif()
