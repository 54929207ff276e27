open Slimsim_sta

type row = {
  component : string;
  failure_mode : string;
  rate : float;
  local_effects : (string * string * string) list;
  leads_to_failure : bool;
  enabled : bool;
}

let analyze ?(max_expansions = 100_000) (net : Network.t) ~goal =
  let w = Walker.create ~budget:max_expansions net in
  Walker.protect @@ fun () ->
  try
    let goal = Walker.predicate w goal in
    let values () = Array.init (Array.length net.vars) (Walker.value w) in
    (* the base: the initial closure's witness *)
    Walker.reset w;
    Walker.witness w ignore;
    let base = values () in
    let enabled_at = Cutsets.enabled_at w in
    let rows =
      Cutsets.basic_events net
      |> List.map (fun (e : Cutsets.basic_event) ->
             let enabled = enabled_at e in
             let local_effects, leads_to_failure =
               if not enabled then ([], false)
               else
                 Walker.trial w @@ fun () ->
                 Walker.apply w (Moves.Local { proc = e.Cutsets.be_proc; tr = e.Cutsets.be_tr });
                 let leads_to_failure = ref false in
                 Walker.witness w (fun () ->
                     if not !leads_to_failure then leads_to_failure := goal ());
                 let witness = values () in
                 ( Array.to_list net.vars
                   |> List.mapi (fun i (vi : Network.var_info) ->
                          let before = base.(i) and after = witness.(i) in
                          if Value.equal before after then None
                          else Some (vi.var_name, Value.to_string before, Value.to_string after))
                   |> List.filter_map Fun.id,
                   !leads_to_failure )
             in
             {
               component = Network.proc_name net e.Cutsets.be_proc;
               failure_mode = e.Cutsets.be_label;
               rate = e.Cutsets.be_rate;
               local_effects;
               leads_to_failure;
               enabled;
             })
    in
    Ok rows
  with Walker.Exhausted _ -> Error "FMEA expansion budget exhausted"

let pp_table ppf rows =
  Fmt.pf ppf "@[<v>%-28s %-44s %-10s %-8s %s@," "component" "failure mode" "rate"
    "failure" "effects";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-28s %-44s %-10g %-8s %s@," r.component r.failure_mode r.rate
        (if r.leads_to_failure then "SYSTEM" else "-")
        (if not r.enabled then "not enabled initially"
         else
           String.concat ", "
             (List.map (fun (v, b, a) -> Printf.sprintf "%s: %s->%s" v b a) r.local_effects)))
    rows;
  Fmt.pf ppf "@]"
