# Fails when a gtest binary lists a test whose parameter prints as a raw byte
# dump ("N-byte object <...>"). Such ids are unreadable, and a dump of a
# struct holding pointers changes on every run. Fix: give the parameter type
# a PrintTo.
#
#   cmake -P check_test_ids.cmake <gtest binary>...
set(failed FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 3 ${last})
  set(binary "${CMAKE_ARGV${i}}")
  execute_process(COMMAND "${binary}" --gtest_list_tests
                  OUTPUT_VARIABLE listing RESULT_VARIABLE result)
  if(NOT result EQUAL 0)
    message(SEND_ERROR "${binary} --gtest_list_tests exited with ${result}")
    set(failed TRUE)
    continue()
  endif()
  string(REGEX MATCHALL "[^\n]*byte object <[^\n]*" dumps "${listing}")
  foreach(line IN LISTS dumps)
    message(SEND_ERROR "${binary}: test id embeds a byte dump:${line}")
    set(failed TRUE)
  endforeach()
endforeach()
if(failed)
  message(FATAL_ERROR "unreadable test ids (see above)")
endif()
