# Fails if a hot pass of the tpsl library holds no prefetch instruction.
# GCC deletes every call to a prefetch-only function it has not inlined
# (see src/util/prefetch.h), so a prefetch can vanish from a pass while
# every other test still passes. Run as
#
#   cmake -DOBJDUMP=<objdump> -DPROCESSOR=<cpu> -DLIBRARY=<libtpsl.a> \
#         -P check_prefetch_codegen.cmake
#
# Off x86-64, or without objdump, it prints SKIP and checks nothing.

set(members
  two_phase_partitioner.cc.o  # 2PS-L's pre-partition and scoring passes
  streaming_clustering.cc.o   # 2PS-L's clustering passes
  hdrf.cc.o                   # a ForEachEdgePrefetched user
  partition_service.cc.o)     # the serving ledger's bootstrap build

if(NOT PROCESSOR MATCHES "^(x86_64|AMD64|amd64)$")
  message("SKIP: prefetch codegen is checked on x86-64 only, not '${PROCESSOR}'")
  return()
endif()
if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
  message("SKIP: no objdump")
  return()
endif()

get_filename_component(library_name "${LIBRARY}" NAME)
set(listing "${CMAKE_CURRENT_BINARY_DIR}/${library_name}.prefetch.txt")
execute_process(
  COMMAND "${OBJDUMP}" -d --no-show-raw-insn "${LIBRARY}"
  OUTPUT_FILE "${listing}"
  RESULT_VARIABLE result)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${LIBRARY} failed: ${result}")
endif()

# Keep only the archive members' headers and the prefetch instructions,
# then count the instructions per member.
file(STRINGS "${listing}" lines REGEX "file format|\tprefetch")
file(REMOVE "${listing}")
set(member "")
foreach(line IN LISTS lines)
  if(line MATCHES "^(.+):[ \t]+file format")
    set(member "${CMAKE_MATCH_1}")
    if(NOT DEFINED count_${member})
      set(count_${member} 0)
    endif()
  elseif(member)
    math(EXPR count_${member} "${count_${member}} + 1")
  endif()
endforeach()

set(failed "")
foreach(member IN LISTS members)
  if(NOT DEFINED count_${member})
    list(APPEND failed "${member} (not in ${library_name})")
  elseif(count_${member} EQUAL 0)
    list(APPEND failed "${member} (no prefetch instruction)")
  else()
    message("${member}: ${count_${member}} prefetch instructions")
  endif()
endforeach()
if(failed)
  list(JOIN failed "\n  " failed)
  message(FATAL_ERROR "prefetches compiled out of ${library_name}:\n  ${failed}\n"
                      "A prefetch-only function must be [[gnu::always_inline]]; "
                      "see src/util/prefetch.h.")
endif()
