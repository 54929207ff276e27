open Slimsim_sta

type basic_event = {
  be_proc : int;
  be_tr : int;
  be_label : string;
  be_rate : float;
}

type cut_set = basic_event list

type fault_tree = {
  top : string;
  cut_sets : cut_set list;
  max_order : int;
}

let basic_events (net : Network.t) =
  let out = ref [] in
  Array.iteri
    (fun p (proc : Automaton.t) ->
      Array.iteri
        (fun ti (tr : Automaton.transition) ->
          match tr.guard with
          | Automaton.Rate r ->
            out :=
              {
                be_proc = p;
                be_tr = ti;
                be_label =
                  Fmt.str "%s: %s -> %s" proc.proc_name
                    proc.locations.(tr.src).loc_name
                    proc.locations.(tr.dst).loc_name;
                be_rate = r;
              }
              :: !out
          | Automaton.Guard _ -> ())
        proc.transitions)
    net.procs;
  List.rev !out

let enabled_at w =
  let moves = Walker.moves w in
  fun e -> List.mem (Moves.Local { proc = e.be_proc; tr = e.be_tr }) moves

module Key_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let minimal_cut_sets ?(max_order = 3) ?(max_expansions = 200_000)
    (net : Network.t) ~goal =
  let events = basic_events net in
  let w = Walker.create ~budget:max_expansions net in
  Walker.protect @@ fun () ->
  try
    let goal = Walker.predicate w goal in
    let table = Walker.Table.create net in
    (* The numbers of the stable states the scratch's state closes to,
       the last found first, and whether the goal holds in one of them *)
    let stable_states () =
      Walker.close w ~on_cycle:ignore
        (fun _ (hit, states) -> (hit || goal (), Walker.Table.add table w ~parent:(-1) :: states))
        (false, [])
    in
    Walker.reset w;
    let hit, initial = stable_states () in
    if hit then
      (* the top event can occur without any fault *)
      Ok [ [] ]
    else begin
      (* [mcs]: the (process, transition) sets found to reach the top
         event; frontier: stable states with the set that produced them *)
      let mcs = ref [] in
      let covered keys = List.exists (fun found -> Key_set.subset found keys) !mcs in
      let frontier = ref (List.map (fun s -> (s, Key_set.empty)) initial) in
      let order = ref 0 in
      while !order < max_order && !frontier <> [] do
        incr order;
        let next = ref [] in
        let seen = Hashtbl.create 256 in
        List.iter
          (fun (s, keys) ->
            if not (covered keys) then begin
              Walker.Table.load table s w;
              Walker.fold_rates w
                (fun m () ->
                  let p = Walker.rate_proc w m and ti = Walker.rate_tr w m in
                  let keys' = Key_set.add (p, ti) keys in
                  if not (Key_set.mem (p, ti) keys || covered keys') then begin
                    Walker.charge w;
                    let hit, stables = stable_states () in
                    if hit then mcs := keys' :: !mcs
                    else
                      List.iter
                        (fun st ->
                          let prev = Option.value ~default:[] (Hashtbl.find_opt seen st) in
                          if not (List.exists (Key_set.equal keys') prev) then begin
                            Hashtbl.replace seen st (keys' :: prev);
                            next := (st, keys') :: !next
                          end)
                        stables
                  end)
                ()
            end)
          !frontier;
        frontier := !next
      done;
      (* each set's events in (process, transition) order; drop the
         non-minimal ones *)
      let sets =
        List.map
          (fun keys -> List.filter (fun e -> Key_set.mem (e.be_proc, e.be_tr) keys) events)
          !mcs
        |> List.sort_uniq compare
      in
      let subset a b = List.for_all (fun e -> List.mem e b) a in
      Ok
        (List.filter
           (fun cs -> not (List.exists (fun cs' -> cs' <> cs && subset cs' cs) sets))
           sets
        |> List.sort (fun a b -> compare (List.length a, a) (List.length b, b)))
    end
  with Walker.Exhausted { in_closure } ->
    Error
      (if in_closure then "closure budget exhausted"
       else "expansion budget exhausted")

let fault_tree ?max_order net ~goal ~top =
  match minimal_cut_sets ?max_order net ~goal with
  | Error e -> Error e
  | Ok cut_sets ->
    Ok { top; cut_sets; max_order = Option.value ~default:3 max_order }

let event_probability e ~horizon = 1.0 -. exp (-.e.be_rate *. horizon)

let cut_set_probability cs ~horizon =
  List.fold_left (fun acc e -> acc *. event_probability e ~horizon) 1.0 cs

let top_probability cut_sets ~horizon =
  1.0
  -. List.fold_left
       (fun acc cs -> acc *. (1.0 -. cut_set_probability cs ~horizon))
       1.0 cut_sets

let pp_fault_tree ppf t =
  Fmt.pf ppf "@[<v>top event: %s@," t.top;
  if t.cut_sets = [] then
    Fmt.pf ppf "  no cut sets up to order %d@," t.max_order
  else
    List.iteri
      (fun i cs ->
        Fmt.pf ppf "  MCS %d (order %d):@," (i + 1) (List.length cs);
        List.iter (fun e -> Fmt.pf ppf "    %s (rate %g)@," e.be_label e.be_rate) cs)
      t.cut_sets;
  Fmt.pf ppf "@]"

let to_dot t =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "digraph fault_tree {\n  rankdir=BT;\n";
  pf "  top [label=%S shape=box style=filled fillcolor=salmon];\n" t.top;
  pf "  or [label=\"OR\" shape=invtriangle];\n  or -> top;\n";
  List.iteri
    (fun i cs ->
      pf "  and%d [label=\"AND\" shape=triangle];\n  and%d -> or;\n" i i;
      List.iter
        (fun e ->
          let id =
            Printf.sprintf "be_%d_%d" e.be_proc e.be_tr
          in
          pf "  %s [label=\"%s\\nrate %g\" shape=circle];\n" id
            (String.map (function '"' -> '\'' | c -> c) e.be_label)
            e.be_rate;
          pf "  %s -> and%d;\n" id i)
        cs)
    t.cut_sets;
  pf "}\n";
  Buffer.contents b
