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

(* Immediately enabled guarded moves (the untimed abstraction). *)
let immediate net s =
  Moves.discrete net s
  |> List.filter_map (fun { Moves.move; window } ->
         if Moves.I.mem 0.0 window then Some move else None)

exception Search_limit of string

(* All stable states reachable from [s] by immediate moves (all
   branches).  Cycles are cut off rather than reported: a cycling branch
   contributes no stable state. *)
let closure net budget s =
  let out = ref [] in
  let rec go s on_path =
    decr budget;
    if !budget < 0 then raise (Search_limit "closure budget exhausted");
    match immediate net s with
    | [] -> out := s :: !out
    | moves ->
      if not (List.exists (State.equal_timeless s) on_path) then
        List.iter (fun mv -> go (Moves.apply net s mv) (s :: on_path)) moves
  in
  go s [];
  !out

module Key_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let set_key cs = List.map (fun e -> (e.be_proc, e.be_tr)) cs |> Key_set.of_list

let is_superset_of_any mcs keys =
  List.exists (fun (found, _) -> Key_set.subset found keys) mcs

let minimal_cut_sets ?(max_order = 3) ?(max_expansions = 200_000)
    (net : Network.t) ~goal =
  let events = basic_events net in
  let budget = ref max_expansions in
  try
    let initial = closure net budget (State.initial net) in
    if List.exists (fun s -> State.eval_bool s goal) initial then
      (* the top event can occur without any fault *)
      Ok [ [] ]
    else begin
      (* frontier: stable states with the event set that produced them *)
      let mcs = ref [] in
      let frontier = ref (List.map (fun s -> (s, Key_set.empty, [])) initial) in
      for _order = 1 to max_order do
        let next = ref [] in
        let seen = State.Tbl.create 256 in
        List.iter
          (fun (s, keys, used) ->
            if not (is_superset_of_any !mcs keys) then
              List.iter
                (fun (p, ti, _rate) ->
                  let k = (p, ti) in
                  if not (Key_set.mem k keys) then begin
                    let ev =
                      List.find
                        (fun e -> e.be_proc = p && e.be_tr = ti)
                        events
                    in
                    let keys' = Key_set.add k keys in
                    if not (is_superset_of_any !mcs keys') then begin
                      decr budget;
                      if !budget < 0 then
                        raise (Search_limit "expansion budget exhausted");
                      let s' =
                        Moves.apply net s (Moves.Local { proc = p; tr = ti })
                      in
                      let stables = closure net budget s' in
                      let hit =
                        List.exists (fun st -> State.eval_bool st goal) stables
                      in
                      if hit then begin
                        (* drop any previously queued superset work *)
                        mcs := (keys', ev :: used) :: !mcs
                      end
                      else
                        List.iter
                          (fun st ->
                            let prev =
                              Option.value ~default:[] (State.Tbl.find_opt seen st)
                            in
                            if not (List.exists (Key_set.equal keys') prev) then begin
                              State.Tbl.replace seen st (keys' :: prev);
                              next := (st, keys', ev :: used) :: !next
                            end)
                          stables
                    end
                  end)
                (Moves.markovian net s))
          !frontier;
        frontier := !next
      done;
      (* normalize: sort each set, drop non-minimal ones *)
      let sets =
        List.map (fun (_, used) -> List.sort compare used) !mcs
        |> List.sort_uniq compare
      in
      let keyed = List.map (fun cs -> (set_key cs, cs)) sets in
      let minimal =
        List.filter
          (fun (k, _) ->
            not
              (List.exists
                 (fun (k', _) -> (not (Key_set.equal k k')) && Key_set.subset k' k)
                 keyed))
          keyed
        |> List.map snd
        |> List.sort (fun a b ->
               compare (List.length a, a) (List.length b, b))
      in
      Ok minimal
    end
  with Search_limit msg -> Error msg

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
