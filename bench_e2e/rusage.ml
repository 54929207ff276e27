(* Run one command and report what it cost:

     rusage.exe PROGRAM ARGS...

   The command inherits stdin, stdout and stderr.  Once it has exited,
   one more stdout line "rusage EXIT WALL_S CPU_S MAXRSS_KB" follows, with
   CPU time and peak RSS from wait4(2), so they cover every descendant the
   command waited for.  A launcher this small keeps its own memory out of
   the peak: a child forked from the Python harness would be charged the
   harness's resident set until it execs. *)

external wait4 : int -> int * float * float * int = "bench_wait4"

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: rusage.exe PROGRAM ARGS...";
    exit 2
  end;
  let argv = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
  let t0 = Unix.gettimeofday () in
  let pid =
    try Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
    with Unix.Unix_error (e, _, _) ->
      prerr_endline (argv.(0) ^ ": " ^ Unix.error_message e);
      exit 127
  in
  let code, utime, stime, maxrss_kb = wait4 pid in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "rusage %d %.9f %.9f %d\n" code wall (utime +. stime) maxrss_kb
