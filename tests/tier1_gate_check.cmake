# Gate-integrity check: every test registered in this build must carry the
# tier1 label and a finite per-test TIMEOUT.  `ctest -L tier1` is the
# ROADMAP's must-stay-green gate; a test registered without the label
# silently escapes the gate, and one without a TIMEOUT can wedge CI on a
# hung solver.  This script interrogates ctest's own model of the test set
# (--show-only=json-v1), so anything add_test()-ed by any mechanism —
# gtest_discover_tests, raw add_test, future helpers — is covered.
#
# Run as a ctest test (registered in tests/CMakeLists.txt) or manually:
#   cmake -DBUILD_DIR=build -DCTEST_EXECUTABLE=$(which ctest) \
#         -P tests/tier1_gate_check.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED BUILD_DIR)
  message(FATAL_ERROR "tier1_gate_check: pass -DBUILD_DIR=<build tree>")
endif()
if(NOT DEFINED CTEST_EXECUTABLE)
  set(CTEST_EXECUTABLE ctest)
endif()

execute_process(
  COMMAND "${CTEST_EXECUTABLE}" --show-only=json-v1
  WORKING_DIRECTORY "${BUILD_DIR}"
  OUTPUT_VARIABLE model
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tier1_gate_check: ctest --show-only=json-v1 failed (${rc})")
endif()

string(JSON ntests LENGTH "${model}" tests)
if(ntests EQUAL 0)
  message(FATAL_ERROR "tier1_gate_check: build registers no tests at all")
endif()

# Every string(JSON) call re-parses its whole input, so indexing the model
# test by test is quadratic in the test count.  Instead take the tests array
# out once and split it into one small JSON object per test.  CMake's JSON
# writer puts each top-level array element at two-space indentation, and a
# JSON string never holds a raw newline, so "\n  },\n  {" occurs only
# between two tests.  List metacharacters (`;` and the brackets, which
# would shield a `;` from list splitting) are swapped out for the split and
# restored per test.  A split that does not yield exactly ntests objects
# fails the check.
string(JSON tests GET "${model}" tests)
string(ASCII 1 semi)
string(ASCII 2 lbracket)
string(ASCII 3 rbracket)
string(STRIP "${tests}" tests)
string(LENGTH "${tests}" len)
math(EXPR inner "${len} - 2")
string(SUBSTRING "${tests}" 1 ${inner} tests)  # drop the array's own brackets
string(REPLACE ";" "${semi}" tests "${tests}")
string(REPLACE "[" "${lbracket}" tests "${tests}")
string(REPLACE "]" "${rbracket}" tests "${tests}")
string(REPLACE "\n  },\n  {" "\n  };\n  {" tests "${tests}")
list(LENGTH tests nsplit)
if(NOT nsplit EQUAL ntests)
  message(FATAL_ERROR
    "tier1_gate_check: split ctest's model into ${nsplit} tests, expected ${ntests}")
endif()

set(violations "")
foreach(test IN LISTS tests)
  string(REPLACE "${semi}" ";" test "${test}")
  string(REPLACE "${lbracket}" "[" test "${test}")
  string(REPLACE "${rbracket}" "]" test "${test}")
  string(JSON name GET "${test}" name)
  set(has_timeout FALSE)
  set(has_tier1 FALSE)
  string(JSON nprops ERROR_VARIABLE perr LENGTH "${test}" properties)
  if(NOT perr AND nprops GREATER 0)
    math(EXPR plast "${nprops} - 1")
    foreach(p RANGE ${plast})
      string(JSON prop GET "${test}" properties ${p})
      string(JSON pname GET "${prop}" name)
      if(pname STREQUAL "TIMEOUT")
        string(JSON pvalue GET "${prop}" value)
        if(pvalue MATCHES "^[0-9]+(\\.[0-9]+)?$" AND pvalue GREATER 0)
          set(has_timeout TRUE)
        endif()
      elseif(pname STREQUAL "LABELS")
        string(JSON nlabels LENGTH "${prop}" value)
        if(nlabels GREATER 0)
          math(EXPR llast "${nlabels} - 1")
          foreach(l RANGE ${llast})
            string(JSON label GET "${prop}" value ${l})
            if(label STREQUAL "tier1")
              set(has_tier1 TRUE)
            endif()
          endforeach()
        endif()
      endif()
    endforeach()
  endif()
  if(NOT has_timeout)
    string(APPEND violations "  ${name}: no positive TIMEOUT property\n")
  endif()
  if(NOT has_tier1)
    string(APPEND violations "  ${name}: missing the tier1 label\n")
  endif()
endforeach()

if(violations)
  message(FATAL_ERROR
    "tier1_gate_check: ${ntests} tests inspected, violations found —\n"
    "${violations}"
    "register tests through amsyn_add_test() (tests/CMakeLists.txt), which "
    "applies both properties.")
endif()
message(STATUS "tier1_gate_check: all ${ntests} registered tests carry tier1 + TIMEOUT")
