(* The compiled path generator against the reference generator of
   [Path_oracle] on the features that used to run on the interpreter
   only: scripted (Input) strategies, failure biasing in [Rare] and
   trace recording.  Verdicts, errors, recorded steps and estimates must
   be equal bit for bit.  The last case pins the two CLI commands that
   drive a single path, [trace] and [interactive], byte for byte, and
   [simulate] on every query form. *)

module Path = Slimsim_sim.Path
module Strategy = Slimsim_sim.Strategy
module Rare = Slimsim_sim.Rare
module I = Slimsim_intervals.Interval_set

let dir = Filename.dirname Sys.executable_name
let model name = Filename.concat dir ("../examples/models/" ^ name)

let load name =
  match Slimsim.load_file (model name) with
  | Ok m -> m
  | Error e -> Alcotest.failf "load %s: %s" name e

let show = function
  | Ok v, steps ->
    Printf.sprintf "%s, %d steps" (Path.verdict_to_string v) (List.length steps)
  | Error e, _ -> e

(* Path 0 of seeds 1-3 through [Slimsim.simulate_one] (recording) and
   through the oracle: the outcomes, errors as reported, must be
   equal. *)
let same_paths ~name m ~prop ~strategy =
  let goal, hold, horizon = Result.get_ok (Slimsim.parse_property m prop) in
  let cfg = Path.default_config ~horizon in
  List.map
    (fun seed ->
      let production =
        match Slimsim.simulate_one ~seed m ~property:prop ~strategy with
        | Ok (v, steps) -> (Ok v, steps)
        | Error e -> (Error e, [])
      in
      let rng = Slimsim_stats.Rng.for_path ~seed ~path:0 in
      let oracle =
        match
          Path_oracle.generate ~record:true ?hold (Slimsim.network m) cfg strategy
            rng ~goal
        with
        | Ok v, steps -> (Ok v, steps)
        | Error e, _ -> (Error (Path.error_to_string e), [])
      in
      if compare production oracle <> 0 then
        Alcotest.failf "%s, seed %Ld: compiled %s, oracle %s" name seed
          (show production) (show oracle);
      production)
    [ 1L; 2L; 3L ]

(* --- scripted (Input) strategies --- *)

(* A deterministic script cycling through a rate firing, an advance and
   a guarded move at the first point of its window. *)
let mixed (alts : Strategy.alternatives) =
  let n_timed = List.length alts.timed and n_markov = List.length alts.markov in
  match alts.step mod 3 with
  | 0 when n_markov > 0 ->
    Strategy.Fire_markov { index = alts.step mod n_markov; delay = 0.25 }
  | 1 -> Strategy.Advance 0.5
  | _ when n_timed > 0 -> (
    let index = alts.step mod n_timed in
    let window = (List.nth alts.timed index).Slimsim_sta.Moves.window in
    match I.first_point ~eps:1e-9 window with
    | Some delay -> Strategy.Fire { index; delay }
    | None -> Strategy.Advance 1.0)
  | _ -> Strategy.Advance 1.0

let test_scripted () =
  let gps = load "gps_nominal.slim" and heater = load "heater.slim" in
  let gps_prop = "P(<> [0, 200] measurement)" in
  let heater_prop = "P(<> [0, 100] heater in mode hot and seen)" in
  let run ~name m prop script =
    same_paths ~name m ~prop ~strategy:(Strategy.Scripted script)
  in
  let steps = List.concat_map snd (run ~name:"heater" heater heater_prop mixed) in
  List.iter
    (fun what ->
      Alcotest.(check bool) (what ^ " recorded") true
        (List.exists (fun s -> Astring_contains.contains s.Path.description what) steps))
    [ "advance"; "ctrl"; "broken" ];
  ignore (run ~name:"gps" gps gps_prop mixed);
  (* the interactive pin's choices: advance 5, then fire at 6 *)
  (match
     run ~name:"gps by hand" gps gps_prop (fun alts ->
         if alts.step = 1 then Strategy.Advance 5.0
         else Strategy.Fire { index = 0; delay = 6.0 })
   with
  | (Ok (Path.Sat 11.0), [ _; _ ]) :: _ -> ()
  | o :: _ -> Alcotest.failf "gps by hand: %s" (show o)
  | [] -> assert false);
  (* every refusal at step 2, with the interpreter's message *)
  let refuse ~name m prop choice msg =
    let script (alts : Strategy.alternatives) =
      if alts.step >= 2 then choice alts else mixed alts
    in
    match run ~name m prop script with
    | (Error e, _) :: _ when e = msg -> ()
    | o :: _ -> Alcotest.failf "%s: expected %S, got %s" name msg (show o)
    | [] -> assert false
  in
  List.iter
    (fun (what, choice, msg) ->
      refuse ~name:("gps " ^ what) gps gps_prop choice msg;
      refuse ~name:("heater " ^ what) heater heater_prop choice msg)
    [
      ("abort", (fun _ -> Strategy.Abort), "aborted by script");
      ( "bad move index",
        (fun alts ->
          Strategy.Fire { index = List.length alts.Strategy.timed; delay = 0.0 }),
        "model error: script chose an invalid move index" );
      ( "bad rate index",
        (fun alts ->
          Strategy.Fire_markov
            { index = List.length alts.Strategy.markov; delay = 0.0 }),
        "model error: script chose an invalid rate index" );
      ( "negative delay", (fun _ -> Strategy.Advance (-1.0)),
        "model error: script chose a negative delay" );
    ];
  (* gps nominal's only move opens at 10 *)
  refuse ~name:"gps outside the window" gps gps_prop
    (fun _ -> Strategy.Fire { index = 0; delay = 5.0 })
    "model error: script chose a delay outside the move's window"

(* --- failure biasing (Rare) --- *)

let test_rare () =
  let same ~name ?(strategy = Strategy.Asap) ?bias_of file prop bias =
    let m = load file in
    let net = Slimsim.network m in
    let goal, _, horizon = Result.get_ok (Slimsim.parse_property m prop) in
    let r =
      match
        Rare.estimate net ~goal ~horizon ~strategy ~bias ?bias_of ~paths:1000
          ~delta:0.05 ()
      with
      | Ok r -> r
      | Error e -> Alcotest.failf "%s: %s" name (Path.error_to_string e)
    in
    let p, lo, hi, hits =
      match
        Path_oracle.rare_estimate net ~goal ~horizon ~strategy ~bias ?bias_of
          ~paths:1000 ~delta:0.05
      with
      | Ok o -> o
      | Error e -> Alcotest.failf "%s (oracle): %s" name (Path.error_to_string e)
    in
    let bits name x y =
      Alcotest.(check int64) name (Int64.bits_of_float x) (Int64.bits_of_float y)
    in
    bits (name ^ ": probability") p r.Rare.probability;
    bits (name ^ ": ci_low") lo r.Rare.ci_low;
    bits (name ^ ": ci_high") hi r.Rare.ci_high;
    Alcotest.(check int) (name ^ ": hits") hits r.Rare.hits;
    Alcotest.(check bool) (name ^ ": some hits") true (hits > 0)
  in
  let queue = "P(<> [0, 10] q = 4)" in
  List.iter
    (fun b -> same ~name:(Printf.sprintf "uniform bias %g" b) "mm1k.slim" queue b)
    [ 1.0; 10.0; 1000.0 ];
  (* selective biasing: only the arrivals, whose target has a larger q *)
  let net = Slimsim.network (load "mm1k.slim") in
  let arrivals p tr =
    let t = net.Slimsim_sta.Network.procs.(p).Slimsim_sta.Automaton.transitions.(tr) in
    if t.Slimsim_sta.Automaton.dst > t.Slimsim_sta.Automaton.src then 3.0 else 1.0
  in
  same ~name:"arrivals x3" ~bias_of:arrivals "mm1k.slim" queue 1.0;
  (* rates racing guarded moves, on an automated and a scripted strategy *)
  same ~name:"gps bias 10" "gps.slim"
    "P(<> [0, 300] gps in mode active and not gps.measurement)" 10.0;
  same ~name:"heater scripted bias 10" ~strategy:(Strategy.Scripted mixed)
    "heater.slim" "P(<> [0, 100] heater in mode warming)" 10.0

(* --- trace recording --- *)

let test_traces () =
  List.iter
    (fun (name, file, prop) ->
      let runs = same_paths ~name (load file) ~prop ~strategy:Strategy.Progressive in
      Alcotest.(check bool) (name ^ ": steps recorded") true
        (List.for_all (fun (_, steps) -> steps <> []) runs))
    [
      ( "launcher", "launcher_recoverable.slim",
        "P(<> [0,100] mission in mode flight and not thrusters.ctl)" );
      ("gps", "gps.slim", "P(<> [0,300] gps in mode active and not gps.measurement)");
    ]

(* --- CLI pins for the single-path commands --- *)

(* stdout and stderr of one CLI run, which must exit with [code] *)
let run_cli ?stdin ?(code = 0) args =
  let out = Filename.temp_file "slimsim_pin" ".out" in
  let err = Filename.temp_file "slimsim_pin" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out; Sys.remove err)
    (fun () ->
      let bin = Filename.concat dir "../bin/slimsim_cli.exe" in
      Alcotest.(check int) (String.concat " " args ^ ": exit code") code
        (Sys.command (Filename.quote_command bin ?stdin ~stdout:out ~stderr:err args));
      let read f = In_channel.with_open_bin f In_channel.input_all in
      (read out, read err))

let cli ?stdin args = fst (run_cli ?stdin args)

let test_cli_pins () =
  let trace extra =
    cli
      ([ "trace"; model "launcher_recoverable.slim"; "-p";
         "P(<> [0,100] mission in mode flight and not thrusters.ctl)";
         "-s"; "progressive"; "--seed"; "1" ] @ extra)
  in
  let csv = trace [ "--csv" ] in
  Alcotest.(check int) "csv lines" 165 (List.length (String.split_on_char '\n' csv) - 1);
  Alcotest.(check string) "csv md5" "3d93d7ad0e9a1bcbcf65cb87ab3fd340"
    (Digest.to_hex (Digest.string csv));
  Alcotest.(check bool) "text verdict" true
    (String.ends_with ~suffix:"verdict: unsat (horizon)\n" (trace []));
  let input = Filename.temp_file "slimsim_pin" ".in" in
  Out_channel.with_open_bin input (fun oc -> output_string oc "a 5\n0 6\n");
  let out =
    Fun.protect
      ~finally:(fun () -> Sys.remove input)
      (fun () ->
        cli ~stdin:input
          [ "interactive"; model "gps_nominal.slim"; "-p"; "P(<> [0, 200] measurement)" ])
  in
  Alcotest.(check (list string)) "windows"
    [
      "admissible delays: [0,120]";
      "  [0] main: acquisition -> active  in [10,120]";
      "admissible delays: [0,115]";
      "  [0] main: acquisition -> active  in [5,115]";
    ]
    (List.filter
       (fun l ->
         String.starts_with ~prefix:"admissible" l
         || Astring_contains.contains l " in [")
       (String.split_on_char '\n' out));
  Alcotest.(check bool) "interactive verdict" true
    (String.ends_with ~suffix:"verdict: sat@11\n" out);
  (* simulate: -p, --query and --distribute print the same line for a
     probability, -g mlmc runs the multilevel estimator from either
     flag, and the cost forms and refusals are those of the facade *)
  let simulate ?code model_name args =
    let out, err =
      run_cli ?code ("simulate" :: model model_name :: "--no-lint" :: args)
    in
    (Str.global_replace (Str.regexp ", [0-9.]+s)") ")" out, err)
  in
  let same ?(err = "") name expected (out, e) =
    Alcotest.(check string) (name ^ ": stdout") expected out;
    Alcotest.(check string) (name ^ ": stderr") err e
  in
  let inv = [ "--seed"; "3"; "-d"; "0.1"; "-e"; "0.05" ] in
  List.iter
    (fun (name, args) ->
      same name
        "p = 0.807050 in [0.789374, 0.824727] (925/4794 paths, 0 dead/timelocked)\n"
        (simulate "mm1k.slim" (args @ inv)))
    [
      ("invariance -p", [ "-p"; "P([] [0, 5] q < 4)" ]);
      ("invariance --query", [ "--query"; "P([] [0, 5] q < 4)" ]);
      ("invariance --distribute", [ "-p"; "P([] [0, 5] q < 4)"; "--distribute"; "2" ]);
    ];
  let mlmc = "p = 0.177022 in [0.128154, 0.225890] (67/1146 paths, 0 dead/timelocked)\n" in
  List.iter
    (fun (name, err, args) ->
      same ~err name mlmc
        (simulate "mm1k.slim" (args @ [ "P(<> [0, 5] q = 4)"; "-g"; "mlmc" ] @ inv)))
    [
      ("mlmc -p", "", [ "-p" ]);
      ("mlmc --query", "", [ "--query" ]);
      ( "mlmc -j 2",
        "slimsim: warning: the mlmc generator drives a coupled sequential \
         sampler; running with workers = 1 (requested 2)\n",
        [ "-j"; "2"; "-p" ] );
    ];
  let cost form =
    simulate "gps_nominal.slim"
      [ "--query"; form ^ "[x ; <> [0, 300] measurement]"; "-s"; "progressive";
        "-d"; "0.05"; "-e"; "0.05"; "--seed"; "1" ]
  in
  let e_line =
    "E[cost] = 65.2269  [64.4159, 66.0379]  (5903 sat paths; p = 1.000000  \
     [0.982324, 1.000000], 5903 paths)\n"
  in
  same "E[x]" e_line (cost "E");
  let d_out, d_err = cost "D" in
  Alcotest.(check string) "D[x]: first line" e_line
    (String.sub d_out 0 (String.length e_line));
  Alcotest.(check string) "D[x]: table md5" "23d4c4bf11523ef0db2aff0b79b8223e"
    (Digest.to_hex
       (Digest.string
          (String.sub d_out (String.length e_line)
             (String.length d_out - String.length e_line))));
  Alcotest.(check string) "D[x]: stderr" "" d_err;
  List.iter
    (fun (name, model_name, err, args) -> same ~err name "" (simulate ~code:1 model_name args))
    [
      ( "cost x --distribute", "gps_nominal.slim",
        "slimsim: cost queries are not supported with --distribute; run them \
         in a single process\n",
        [ "--query"; "E[x ; <> [0, 300] measurement]"; "--distribute"; "2" ] );
      ( "mlmc x --distribute", "mm1k.slim",
        "slimsim: --generator mlmc is not supported with --distribute (the \
         coupled sampler is sequential); drop one of the two flags\n",
        [ "-p"; "P(<> [0, 5] q = 4)"; "-g"; "mlmc"; "--distribute"; "2" ] );
      ( "mlmc x cost-bounded P", "mm1k_priced.slim",
        "cost-bounded reachability: the multilevel generator's levels \
         truncate the time horizon, and P(<> [c <= C] ...) has none (its \
         horizon is unbounded); use a fixed-size or chow-robbins generator\n",
        [ "--query"; "P(<> [w <= 3] q = 4)"; "-g"; "mlmc" ] );
      ( "-p with --query", "mm1k.slim",
        "slimsim: use exactly one of -p/--property and --query\n",
        [ "-p"; "P(<> [0, 5] q = 4)"; "--query"; "P(<> [0, 5] q = 4)" ] );
    ]

let suite =
  [
    Alcotest.test_case "scripted strategies: compiled = oracle" `Quick test_scripted;
    Alcotest.test_case "rare: compiled = oracle" `Quick test_rare;
    Alcotest.test_case "recorded traces: compiled = oracle" `Quick test_traces;
    Alcotest.test_case "cli pins: trace and interactive" `Quick test_cli_pins;
  ]
