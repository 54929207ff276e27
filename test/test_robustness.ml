(* Robustness properties: total behaviour of the frontend on arbitrary
   input, and structural invariants of the CTMC pipeline on random
   chains. *)

module Ctmc = Slimsim_ctmc.Ctmc
module Lumping = Slimsim_ctmc.Lumping
module Transient = Slimsim_ctmc.Transient

let prop cnt name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:cnt ~name gen f)

(* --- frontend totality --- *)

let gen_garbage =
  QCheck2.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 200))

let gen_slimish =
  (* strings biased towards SLIM fragments, to reach deeper parser paths *)
  QCheck2.Gen.(
    let* words =
      list_size (int_range 0 40)
        (oneofl
           [ "system"; "device"; "implementation"; "end"; "features"; "modes";
             "transitions"; "subcomponents"; "connections"; "flows"; "error";
             "model"; "states"; "events"; "extend"; "root"; "in"; "out";
             "data"; "port"; "clock"; "while"; "when"; "then"; "rate";
             "within"; "inject"; "S"; "T"; "x"; "y"; "a1"; ":"; ";"; "."; ",";
             ":="; "->"; "-["; "]->"; "("; ")"; "["; "]"; "0"; "1"; "2.5";
             "0.2"; ".."; "+"; "-"; "*"; "/"; "="; "<="; ">="; "not"; "and";
             "or"; "true"; "false" ])
    in
    return (String.concat " " words))

let lexer_total src =
  match Slimsim_slim.Lexer.tokenize src with
  | toks -> toks <> [] && List.exists (fun t -> t.Slimsim_slim.Token.tok = Slimsim_slim.Token.EOF) toks
  | exception Slimsim_slim.Lexer.Lex_error _ -> true

let parser_total src =
  match Slimsim_slim.Parser.parse_model src with Ok _ | Error _ -> true

let loader_total src =
  match Slimsim_slim.Loader.load_string src with Ok _ | Error _ -> true

(* --- random CTMCs --- *)

let gen_ctmc =
  QCheck2.Gen.(
    let* n = int_range 1 10 in
    let* edges =
      list_size (int_range 0 (3 * n))
        (let* s = int_range 0 (n - 1) in
         let* t = int_range 0 (n - 1) in
         let* r = float_range 0.01 5.0 in
         return (s, t, r))
    in
    let* goal = list_size (return n) bool in
    return (Ctmc.make ~n_states:n ~initial:[ (0, 1.0) ] ~transitions:edges ~goal:(Array.of_list goal)))

let ctmc_tests =
  [
    prop 200 "lumping preserves reachability" gen_ctmc (fun c ->
        let r = Lumping.lump c in
        List.for_all
          (fun h ->
            Float.abs
              (Transient.reach_probability c ~horizon:h
              -. Transient.reach_probability r.Lumping.quotient ~horizon:h)
            < 1e-6)
          [ 0.0; 0.3; 2.0; 10.0 ]);
    prop 200 "lumping is idempotent" gen_ctmc (fun c ->
        let r1 = Lumping.lump c in
        let r2 = Lumping.lump r1.Lumping.quotient in
        r2.Lumping.n_blocks = r1.Lumping.n_blocks);
    prop 200 "lumping never grows the chain" gen_ctmc (fun c ->
        (Lumping.lump c).Lumping.n_blocks <= c.Ctmc.n_states);
    prop 200 "block map respects goal labels" gen_ctmc (fun c ->
        let r = Lumping.lump c in
        Array.to_list c.Ctmc.goal
        |> List.mapi (fun s g -> (s, g))
        |> List.for_all (fun (s, g) ->
               r.Lumping.quotient.Ctmc.goal.(r.Lumping.block_of.(s)) = g));
    prop 200 "reach probability is monotone in the horizon" gen_ctmc (fun c ->
        let p1 = Transient.reach_probability c ~horizon:1.0 in
        let p2 = Transient.reach_probability c ~horizon:5.0 in
        p1 <= p2 +. 1e-9 && p1 >= -1e-12 && p2 <= 1.0 +. 1e-9);
    prop 200 "uniformized rows are stochastic" gen_ctmc (fun c ->
        let q = Float.max 1.0 (Ctmc.max_exit_rate c) in
        let u = Ctmc.uniformized_dtmc c ~q ~live:(Array.make c.Ctmc.n_states true) in
        List.init c.Ctmc.n_states (fun i ->
            let total = ref 0.0 in
            for e = u.Ctmc.first.(i) to u.Ctmc.first.(i + 1) - 1 do
              total := !total +. Float.Array.get u.Ctmc.prob e
            done;
            !total)
        |> List.for_all (fun total -> Float.abs (total -. 1.0) < 1e-9));
  ]

(* --- simulator path invariants over random seeds --- *)

(* Each property runs the compiled generator and requires the oracle to
   produce the same verdict, steps and likelihood ratio. *)
let path_invariant_tests =
  let module Path = Slimsim_sim.Path in
  let module Compiled = Slimsim_sta.Compiled in
  let net =
    match Slimsim_slim.Loader.load_string Slimsim_models.Gps.source with
    | Ok l -> l.Slimsim_slim.Loader.network
    | Error e -> failwith e
  in
  let g =
    match Slimsim_slim.Loader.parse_goal net Slimsim_models.Gps.goal_no_fix with
    | Ok g -> g
    | Error e -> failwith e
  in
  let horizon = 120.0 in
  let cfg = Path.default_config ~horizon in
  let c = Compiled.compile net in
  let q = Path.compile_query c ~goal:g in
  let s = Compiled.scratch c in
  let rng seed = Slimsim_stats.Rng.for_path ~seed ~path:0 in
  let run seed strategy =
    let steps = ref [] in
    let v = Path.generate ~record:steps c s q cfg strategy (rng seed) in
    let oracle = Path_oracle.generate ~record:true net cfg strategy (rng seed) ~goal:g in
    if compare (v, !steps) oracle <> 0 then
      failwith "compiled path differs from the oracle";
    (v, !steps)
  in
  let gen = QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 0 3)) in
  let strategies =
    [| Slimsim_sim.Strategy.Asap; Slimsim_sim.Strategy.Progressive;
       Slimsim_sim.Strategy.Local; Slimsim_sim.Strategy.Max_time |]
  in
  [
    prop 200 "sat times stay within the horizon" gen (fun (seed, si) ->
        match run (Int64.of_int seed) strategies.(si) with
        | Ok (Path.Sat t), _ -> t >= 0.0 && t <= horizon +. 1e-6
        | Ok _, _ -> true
        | Error _, _ -> false);
    prop 200 "recorded step times are monotone" gen (fun (seed, si) ->
        let _, steps = run (Int64.of_int seed) strategies.(si) in
        let rec mono = function
          | (a : Path.step_record) :: (b :: _ as rest) ->
            a.Path.at_time <= b.Path.at_time +. 1e-9 && mono rest
          | [ _ ] | [] -> true
        in
        mono steps
        && List.for_all
             (fun (s : Path.step_record) -> s.Path.chose_delay >= -1e-9)
             steps);
    prop 200 "weighted generation with bias 1 has unit ratio" gen
      (fun (seed, si) ->
        let seed = Int64.of_int seed in
        let ratio = ref nan in
        let v =
          Path.generate ~weight:((fun _ _ -> 1.0), ratio) c s q cfg strategies.(si)
            (rng seed)
        in
        match
          Path_oracle.generate_weighted ~bias:1.0 net cfg strategies.(si) (rng seed)
            ~goal:g
        with
        | Ok (v', r'), _ ->
          v = Ok v' && !ratio = r' && Float.abs (!ratio -. 1.0) < 1e-9
        | Error _, _ -> false);
  ]

(* --- engine conservation --- *)

let test_engine_conservation () =
  let model =
    match Slimsim.load_string Slimsim_models.Gps.source with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let property =
    Printf.sprintf "P(<> [0, 120] %s)" Slimsim_models.Gps.goal_no_fix
  in
  match
    Slimsim.check model ~property ~strategy:Slimsim.Strategy.Local ~delta:0.1
      ~eps:0.1 ()
  with
  | Ok r ->
    Alcotest.(check bool) "successes within paths" true
      (r.Slimsim.successes >= 0 && r.Slimsim.successes <= r.Slimsim.paths);
    Alcotest.(check bool) "deadlocks within failures" true
      (r.Slimsim.deadlock_paths <= r.Slimsim.paths - r.Slimsim.successes);
    Alcotest.(check (float 1e-9)) "probability = successes / paths"
      (float_of_int r.Slimsim.successes /. float_of_int r.Slimsim.paths)
      r.Slimsim.probability
  | Error e -> Alcotest.fail e

let test_chow_robbins_through_engine () =
  let src =
    {|
device D
features
  v: out data port bool := false;
end D;
device implementation D.I
modes
  a: initial mode;
  b: mode;
transitions
  a -[rate 0.2 then v := true]-> b;
end D.I;
root D.I;
|}
  in
  let model = Result.get_ok (Slimsim.load_string src) in
  let truth = 1.0 -. exp (-0.2 *. 5.0) in
  match
    Slimsim.check ~generator:Slimsim.Generator.Chow_robbins model
      ~property:"P(<> [0, 5] v)" ~strategy:Slimsim.Strategy.Asap ~delta:0.05
      ~eps:0.03 ()
  with
  | Ok r ->
    Alcotest.(check bool) "sequential stop reached" true (r.Slimsim.paths >= 100);
    Alcotest.(check bool) "estimate near truth" true
      (Float.abs (r.Slimsim.probability -. truth) < 0.05)
  | Error e -> Alcotest.fail e

(* rows of up to 80 entries, past the buffer's runs of 8 and through
   four merge passes, over 6 targets, so most targets repeat, with
   rates over many magnitudes so the summation order shows *)
let test_row_buffer =
  prop 500 "row buffer merges as merge_row, bit for bit"
    QCheck2.Gen.(
      list_size (int_range 0 80)
        (pair (int_range 0 5) (map (fun e -> Float.pow 10.0 e) (float_range (-8.0) 8.0))))
    (fun entries ->
      let b = Ctmc.Row_buffer.create () in
      List.iter (fun (t, r) -> Ctmc.Row_buffer.push b t r) entries;
      Ctmc.Row_buffer.merge b;
      let bits row = List.map (fun (t, r) -> (t, Int64.bits_of_float r)) row in
      bits (Array.to_list (Ctmc.merge_row (Array.of_list entries)))
      = bits
          (List.combine
             (Array.to_list (Ctmc.Row_buffer.targets b))
             (Float.Array.to_list (Ctmc.Row_buffer.rates b))))

let suite =
  [
    prop 500 "lexer is total on printable garbage" gen_garbage lexer_total;
    prop 500 "lexer is total on SLIM-ish soup" gen_slimish lexer_total;
    prop 500 "parser is total on printable garbage" gen_garbage parser_total;
    prop 800 "parser is total on SLIM-ish soup" gen_slimish parser_total;
    prop 300 "loader is total on SLIM-ish soup" gen_slimish loader_total;
  ]
  @ ctmc_tests
  @ path_invariant_tests
  @ [
      Alcotest.test_case "engine conservation" `Quick test_engine_conservation;
      Alcotest.test_case "chow-robbins through the engine" `Quick
        test_chow_robbins_through_engine;
      test_row_buffer;
    ]
