/* wait4(2) for rusage.ml: the exit code, CPU seconds and peak RSS of a
   child and of every descendant it waited for. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

value bench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal3(res, utime, stime);
  struct rusage ru;
  int status;
  pid_t r;

  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");

  utime = caml_copy_double(ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6);
  stime = caml_copy_double(ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6);
  res = caml_alloc_tuple(4);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, utime);
  Store_field(res, 2, stime);
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
