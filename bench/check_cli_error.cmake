# Test driver for the bench command-line error tests: run one bench
# binary with ARGS (a ;-list) and require exit status RC and a stderr
# matching REGEX.  Invoked as
#   cmake -DBENCH=... -DARGS=... -DRC=... -DREGEX=... -P this
execute_process(
    COMMAND ${BENCH} ${ARGS}
    RESULT_VARIABLE bench_rc
    OUTPUT_QUIET
    ERROR_VARIABLE bench_err)
list(JOIN ARGS " " args_text)
if(NOT bench_rc EQUAL RC)
    message(FATAL_ERROR
            "${BENCH} ${args_text} exited ${bench_rc}, expected ${RC}:\n"
            "${bench_err}")
endif()
if(NOT bench_err MATCHES "${REGEX}")
    message(FATAL_ERROR
            "stderr of ${BENCH} ${args_text} lacks '${REGEX}':\n${bench_err}")
endif()
