open Slimsim_sta

type row = {
  component : string;
  failure_mode : string;
  rate : float;
  local_effects : (string * string * string) list;
  leads_to_failure : bool;
}

let immediate net s =
  Moves.discrete net s
  |> List.filter_map (fun { Moves.move; window } ->
         if Moves.I.mem 0.0 window then Some move else None)

exception Limit

let closure net budget s =
  let out = ref [] in
  let rec go s on_path =
    decr budget;
    if !budget < 0 then raise Limit;
    match immediate net s with
    | [] -> out := s :: !out
    | moves ->
      if not (List.exists (State.equal_timeless s) on_path) then
        List.iter (fun mv -> go (Moves.apply net s mv) (s :: on_path)) moves
  in
  go s [];
  !out

let analyze ?(max_expansions = 100_000) (net : Network.t) ~goal =
  let budget = ref max_expansions in
  try
    let base =
      match closure net budget (State.initial net) with
      | s :: _ -> s
      | [] -> State.initial net
    in
    let rows =
      Cutsets.basic_events net
      |> List.map (fun (e : Cutsets.basic_event) ->
             let after_event =
               Moves.apply net base
                 (Moves.Local { proc = e.Cutsets.be_proc; tr = e.Cutsets.be_tr })
             in
             let consequences = closure net budget after_event in
             let witness = match consequences with s :: _ -> s | [] -> after_event in
             let local_effects =
               Array.to_list net.vars
               |> List.mapi (fun i (vi : Network.var_info) ->
                      let before = base.State.vals.(i)
                      and after = witness.State.vals.(i) in
                      if Value.equal before after then None
                      else
                        Some
                          ( vi.var_name,
                            Value.to_string before,
                            Value.to_string after ))
               |> List.filter_map Fun.id
             in
             let leads_to_failure =
               List.exists (fun s -> State.eval_bool s goal) consequences
             in
             {
               component = Network.proc_name net e.Cutsets.be_proc;
               failure_mode = e.Cutsets.be_label;
               rate = e.Cutsets.be_rate;
               local_effects;
               leads_to_failure;
             })
    in
    Ok rows
  with Limit -> Error "FMEA expansion budget exhausted"

let pp_table ppf rows =
  Fmt.pf ppf "@[<v>%-28s %-44s %-10s %-8s %s@," "component" "failure mode" "rate"
    "failure" "effects";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-28s %-44s %-10g %-8s %s@," r.component r.failure_mode r.rate
        (if r.leads_to_failure then "SYSTEM" else "-")
        (String.concat ", "
           (List.map
              (fun (v, b, a) -> Printf.sprintf "%s: %s->%s" v b a)
              r.local_effects)))
    rows;
  Fmt.pf ppf "@]"
