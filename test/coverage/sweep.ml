(* The full coverage sweep: [sweep MODEL CAMPAIGNS DELTA] runs the
   campaigns of [Coverage.misses] on MODEL (mm1k_priced.slim) and fails
   when the misses exceed [Coverage.max_misses], the bound below the
   0.1 % upper tail of Binomial(CAMPAIGNS, DELTA). *)

let () =
  match Sys.argv with
  | [| _; file; campaigns; delta |] -> (
    let campaigns = int_of_string campaigns and delta = float_of_string delta in
    let bound = Slimsim_coverage.Coverage.max_misses ~campaigns ~delta in
    match
      Result.bind (Slimsim.load_file file) (fun m ->
          Slimsim_coverage.Coverage.misses m ~campaigns ~delta)
    with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok misses ->
      Printf.printf "%s at eps %g, delta %g: %d of %d intervals miss %g (bound %d)\n"
        Slimsim_coverage.Coverage.query Slimsim_coverage.Coverage.eps delta misses
        campaigns Slimsim_coverage.Coverage.reference bound;
      if misses > bound then exit 1)
  | _ ->
    prerr_endline "usage: sweep MODEL CAMPAIGNS DELTA";
    exit 2
