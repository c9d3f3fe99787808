# The --jobs determinism check, run as a script:
#
#   cmake [-DGOLDEN=<file>] -P jobs_identity.cmake <bench> [args...]
#
# Runs <bench> [args...] once with --jobs 1 and once with --jobs 8.
# Fails if either run exits nonzero (a bench's --smoke self-checks
# fail through its exit code) or if the two stdouts differ: sweep
# scheduling must never leak into the simulation. With GOLDEN, the
# --jobs 1 stdout must also equal <file>; a mismatch prints the
# unified diff. Goldens are per toolchain (tests/golden/README).

# Script-mode argv: cmake [-D<var>=<value>...] -P <this file> <bench>
# [args...]; the bench command starts two past the -P.
math(EXPR last "${CMAKE_ARGC} - 1")
set(cmd "")
set(first "")
foreach(i RANGE 1 ${last})
    if(first STREQUAL "" AND "${CMAKE_ARGV${i}}" STREQUAL "-P")
        math(EXPR first "${i} + 2")
    elseif(NOT first STREQUAL "" AND i GREATER_EQUAL first)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    endif()
endforeach()
if(NOT cmd)
    message(FATAL_ERROR "usage: cmake [-DGOLDEN=<file>] -P "
        "jobs_identity.cmake <bench> [args...]")
endif()
list(JOIN cmd " " shown)
list(GET cmd 0 bench)
get_filename_component(bench "${bench}" NAME)

foreach(jobs 1 8)
    execute_process(COMMAND ${cmd} --jobs ${jobs}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out_${jobs}
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${shown} --jobs ${jobs} exited ${rc}\n"
            "--- stdout\n${out_${jobs}}\n--- stderr\n${err}")
    endif()
endforeach()

if(NOT out_1 STREQUAL out_8)
    # Keep both outputs in the test's working directory for a diff.
    file(WRITE "${bench}.jobs1.txt" "${out_1}")
    file(WRITE "${bench}.jobs8.txt" "${out_8}")
    message(FATAL_ERROR "${shown}: stdout differs between --jobs 1 and "
        "--jobs 8 (see ${bench}.jobs1.txt, ${bench}.jobs8.txt)")
endif()
message(STATUS "${shown}: --jobs 1 and --jobs 8 stdout identical")

if(DEFINED GOLDEN)
    file(READ "${GOLDEN}" golden)
    if(NOT out_1 STREQUAL golden)
        file(WRITE "${bench}.actual.txt" "${out_1}")
        # The diff goes straight to the test log, unreflowed.
        execute_process(COMMAND diff -u "${GOLDEN}" "${bench}.actual.txt")
        message(FATAL_ERROR "${shown}: --jobs 1 stdout differs from "
            "${GOLDEN} (diff above; actual output kept in "
            "${bench}.actual.txt)")
    endif()
    message(STATUS "${shown}: stdout matches ${GOLDEN}")
endif()
