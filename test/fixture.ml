(* Shared test fixtures: loading a network and a goal, one-shot
   campaigns ([Campaign.create] followed by [Campaign.drive]), and the
   same campaign over the reference path generator of [Path_oracle]. *)

module Loader = Slimsim_slim.Loader
module Campaign = Slimsim_sim.Campaign
module Path = Slimsim_sim.Path
module Rng = Slimsim_stats.Rng

let load src =
  match Loader.load_string src with
  | Ok l -> l.Loader.network
  | Error e -> Alcotest.failf "load failed: %s" e

(* A bundled model's source: the suite runs in [_build/default/test];
   by hand, from the root. *)
let bundled_source file =
  let dir = List.find Sys.file_exists [ "../examples/models"; "examples/models" ] in
  In_channel.with_open_text (Filename.concat dir file) In_channel.input_all

let bundled_model file = load (bundled_source file)

let goal net src =
  match Loader.parse_goal net src with
  | Ok g -> g
  | Error e -> Alcotest.failf "goal failed: %s" e

let run ?workers ?seed ?config ?on_error ?hold ?supervisor ?progress net ~goal
    ~horizon ~strategy ~generator () =
  Result.bind
    (Campaign.create ?workers ?seed ?config ?on_error ?hold ?supervisor
       ?progress net ~goal ~horizon ~strategy ~generator ())
    Campaign.drive

(* The campaign's loop, policies and accumulator, with path [i] drawn
   from the oracle at the RNG of [(seed, i)], as [Campaign.create]'s
   default seed and config do it. *)
let oracle ?(seed = 0x51135113L) ?config ?on_error ?hold ?supervisor net ~goal
    ~horizon ~strategy ~generator () =
  let cfg =
    match config with
    | Some c -> { c with Path.horizon }
    | None -> Path.default_config ~horizon
  in
  let draw camp =
    let path = Campaign.consumed camp in
    let v, _ =
      Path_oracle.generate ?hold net cfg strategy (Rng.for_path ~seed ~path) ~goal
    in
    match Campaign.route camp ~path v with
    | `Sat -> Ok (Campaign.Sat nan)
    | `Unsat -> Ok Campaign.Unsat
    | `Drop -> Ok Campaign.Dropped
    | `Abort e -> Error e
  in
  Result.bind
    (Campaign.create_sequential ~seed ?on_error ?supervisor ~draw
       (Campaign.bernoulli generator))
    Campaign.drive

(* What [Slimsim.start] started, driven as the service drives it:
   [quota] samples per slice, parked between slices. *)
let sliced ?(quota = 7) = function
  | Slimsim.Answered o -> Ok o
  | Slimsim.Sampling (Slimsim.Session (c, map)) ->
    let rec go () =
      match Campaign.step ~quota c with
      | Campaign.Running ->
        Campaign.park c;
        go ()
      | Campaign.Done r -> Ok (map r)
      | Campaign.Failed e -> Error (Path.error_to_string e)
    in
    go ()

(* An outcome with its wall-clock time zeroed, the one field two runs
   of the same campaign may disagree on; compare with [compare], which
   equates NaN cost statistics. *)
let without_wall = function
  | Slimsim.Cost_probability e ->
    Slimsim.Cost_probability { e with Slimsim.wall_seconds = 0.0 }
  | Slimsim.Cost_expected r ->
    Slimsim.Cost_expected
      { r with reach = { r.Slimsim_sim.Cost_run.reach with wall_seconds = 0.0 } }
  | Slimsim.Cost_distribution r ->
    Slimsim.Cost_distribution
      { r with reach = { r.Slimsim_sim.Cost_run.reach with wall_seconds = 0.0 } }

(* A hand-built untimed network that writes each store, ints, reals
   and Booleans, from both sides, updates and flows:
   - [n] counts with [n + 1], the truncating [n / 2] and
     [(n * 3) mod 5], and [k] takes [min (n, 3) + 1] and [1];
   - the flows [m := n + k], [q] (if-then-else, [min], [max],
     negatives) and [d] (negative operands of [/] and [mod]) are ints;
   - the real [r] takes [n * 2.5], and the flow [h := r / 2.0 + n]
     mixes it with an int;
   - the Boolean [b] flips with [not b], and the flow [e := n > 2 or b]
     reads it, as does a guard. *)
let lane_network () =
  let module Sta = Slimsim_sta in
  let module E = Sta.Expr in
  let n = 0 and r = 1 and k = 2 and m = 3 and q = 4 and d = 5 and b = 6 and e = 7 and h = 8 in
  let v = E.var and i = E.int in
  let bin op x y = E.Binop (op, x, y) in
  let loc name = { Sta.Automaton.loc_name = name; invariant = E.true_; derivs = [] } in
  let tr src dst guard updates =
    { Sta.Automaton.src; dst; label = Sta.Automaton.Tau; guard; updates; weight = 1.0 }
  in
  let p =
    Sta.Automaton.make ~name:"p" ~locations:[| loc "a0"; loc "a1" |] ~initial:0
      ~transitions:
        [
          tr 0 1 (Sta.Automaton.Rate 1.0)
            [ (n, bin E.Add (v n) (i 1)); (b, E.Unop (E.Not, v b)) ];
          tr 1 0 (Sta.Automaton.Rate 2.0) [ (n, bin E.Div (v n) (i 2)) ];
          tr 1 0 (Sta.Automaton.Rate 0.5)
            [
              (k, bin E.Add (bin E.Min (v n) (i 3)) (i 1));
              (n, bin E.Mod (bin E.Mul (v n) (i 3)) (i 5));
            ];
        ]
  in
  let g e = Sta.Automaton.Guard e in
  let c =
    Sta.Automaton.make ~name:"c" ~locations:[| loc "c0"; loc "c1" |] ~initial:0
      ~transitions:
        [
          tr 0 1 (g (bin E.Gt (v n) (i 1))) [ (r, bin E.Mul (v n) (E.real 2.5)) ];
          tr 1 0 (g (bin E.And (bin E.Ge (v k) (i 3)) (bin E.Gt (v q) (i 3)))) [ (k, i 1) ];
          tr 1 0 (g (bin E.And (bin E.Le (v n) (i 1)) (E.Unop (E.Not, v e)))) [];
        ]
  in
  let var name init =
    { Sta.Network.var_name = name; kind = Sta.Network.Discrete; init; owner = None }
  in
  Sta.Network.make
    ~procs:[ (p, Sta.Network.default_meta); (c, Sta.Network.default_meta) ]
    ~vars:
      [|
        var "n" (Sta.Value.Int 0);
        var "r" (Sta.Value.Real 0.0);
        var "k" (Sta.Value.Int 1);
        var "m" (Sta.Value.Int 0);
        var "q" (Sta.Value.Int 0);
        var "d" (Sta.Value.Int 0);
        var "b" (Sta.Value.Bool false);
        var "e" (Sta.Value.Bool false);
        var "h" (Sta.Value.Real 0.0);
      |]
    ~events:[||]
    ~flows:
      [
        { Sta.Network.target = m; expr = bin E.Add (v n) (v k) };
        {
          Sta.Network.target = q;
          expr =
            E.Ite
              ( bin E.Gt (v n) (i 2),
                bin E.Max (bin E.Mul (v n) (v n)) (i 5),
                bin E.Min (E.Unop (E.Neg, v n)) (i (-1)) );
        };
        {
          Sta.Network.target = d;
          expr = bin E.Add (bin E.Div (bin E.Sub (v q) (i 7)) (i 2)) (bin E.Mod (bin E.Sub (v n) (i 5)) (i 3));
        };
        { Sta.Network.target = e; expr = bin E.Or (bin E.Gt (v n) (i 2)) (v b) };
        { Sta.Network.target = h; expr = bin E.Add (bin E.Div (v r) (E.real 2.0)) (v n) };
      ]

(* A hand-built timed network of reals, written from both sides:
   - [x] takes [min (x + 0.5, 1.5)], [-x] (so [-0.0]) and
     [max (x - 1.0, -1.5)], and the flow [y := x * 2.0] reads it;
   - [r1] takes [n + 0.5] and [r2] the real division [n / 2.0], each
     an int mixed with a real;
   - [k] takes [min (x, n)], a real whichever operand is the lesser;
   - [z := r1 + 0.5] is written beside the clock [c]'s reset to [0.0],
     and a guard and an invariant read [c] beside [x] and [y].
   [n] is an int counting modulo 4, so the state graph is finite. *)
let real_lane_network () =
  let module Sta = Slimsim_sta in
  let module E = Sta.Expr in
  let n = 0 and x = 1 and y = 2 and r1 = 3 and r2 = 4 and z = 5 and k = 6 and c = 7 in
  let v = E.var and i = E.int and r = E.real in
  let bin op a b = E.Binop (op, a, b) in
  let loc ?(invariant = E.true_) name = { Sta.Automaton.loc_name = name; invariant; derivs = [] } in
  let tr src dst guard updates =
    { Sta.Automaton.src; dst; label = Sta.Automaton.Tau; guard; updates; weight = 1.0 }
  in
  let p =
    Sta.Automaton.make ~name:"p" ~locations:[| loc "a0"; loc "a1" |] ~initial:0
      ~transitions:
        [
          tr 0 1 (Sta.Automaton.Rate 1.0)
            [
              (n, bin E.Mod (bin E.Add (v n) (i 1)) (i 4));
              (x, bin E.Min (bin E.Add (v x) (r 0.5)) (r 1.5));
            ];
          tr 1 0 (Sta.Automaton.Rate 2.0) [ (x, E.Unop (E.Neg, v x)); (r1, bin E.Add (v n) (r 0.5)) ];
          tr 1 0 (Sta.Automaton.Rate 0.5)
            [
              (x, bin E.Max (bin E.Sub (v x) (r 1.0)) (r (-1.5)));
              (r2, bin E.Div (v n) (r 2.0));
              (k, bin E.Min (v x) (v n));
            ];
        ]
  in
  let g e = Sta.Automaton.Guard e in
  let q =
    Sta.Automaton.make ~name:"g"
      ~locations:[| loc "g0"; loc ~invariant:(bin E.Le (v c) (r 5.0)) "g1" |]
      ~initial:0
      ~transitions:
        [
          tr 0 1 (g (bin E.Ge (v x) (r 1.0))) [ (z, bin E.Add (v r1) (r 0.5)); (c, r 0.0) ];
          tr 1 0
            (g (bin E.Or (bin E.Eq (v x) (v y)) (bin E.And (bin E.Lt (v x) (i 0)) (bin E.Ge (v c) (r 2.0)))))
            [];
        ]
  in
  let var ?(kind = Sta.Network.Discrete) name init = { Sta.Network.var_name = name; kind; init; owner = None } in
  Sta.Network.make
    ~procs:[ (p, Sta.Network.default_meta); (q, Sta.Network.default_meta) ]
    ~vars:
      [|
        var "n" (Sta.Value.Int 0);
        var "x" (Sta.Value.Real 0.0);
        var "y" (Sta.Value.Real 0.0);
        var "r1" (Sta.Value.Real 0.0);
        var "r2" (Sta.Value.Real 0.0);
        var "z" (Sta.Value.Real 0.0);
        var "k" (Sta.Value.Real 0.0);
        var ~kind:Sta.Network.Clock "c" (Sta.Value.Real 0.0);
      |]
    ~events:[||]
    ~flows:[ { Sta.Network.target = y; expr = bin E.Mul (v x) (r 2.0) } ]
