(* Host-speed probe: a fixed amount of work shaped like path sampling —
   random exponential delays, small records consed on the minor heap, a
   hash table of visited states — that prints its own run time in
   seconds.

     probe.exe

   The harness runs it between CLI invocations and scales their times by
   [reference / probe time] (see README.md, "Host noise").  Its code must
   never change: a faster probe would read as a slower program. *)

let paths = 30_000

let () =
  let st = Random.State.make [| 42 |] in
  let visits = Hashtbl.create 1024 in
  let steps = ref 0 in
  let t0 = Unix.gettimeofday () in
  for path = 1 to paths do
    let rec walk t s n trace =
      if t > 100.0 || n > 50 then (s, trace)
      else
        let rate = 1.0 +. float_of_int (s land 15) in
        let dt = -.log (Random.State.float st 1.0 +. 1e-12) /. rate in
        let s' = ((s * 31) + Random.State.int st 7) land 1023 in
        walk (t +. dt) s' (n + 1) ((t, s) :: trace)
    in
    let s, trace = walk 0.0 0 0 [] in
    steps := !steps + List.length trace;
    Hashtbl.replace visits s
      (path + Option.value ~default:0 (Hashtbl.find_opt visits s))
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "%.9f %d %d\n" elapsed !steps (Hashtbl.length visits)
