(* The traced in-process run: replay a workload's request stream through
   each layer's public functions in the order Server applies them —
   Wire JSON parse, the Canon memo, CQ parse and Canon.cq_key on a memo
   miss, the Cache lookup, Plan.route_cq, Plan.certain /
   Plan.certain_answers, Footprint.of_cq and the Cache store, then the
   Wire response row — with a span around every call.  Spans are
   recorded here, in the benchmark, not by the library; they are kept in
   memory and written out when the run ends. *)

module Obs = Certdb_obs.Obs
module Json = Obs.Json
module Wire = Certdb_service.Wire
module Canon = Certdb_service.Canon
module Cache = Certdb_service.Cache
module Plan = Certdb_analysis.Plan
module Footprint = Certdb_analysis.Footprint
module Engine = Certdb_csp.Engine
module Backend = Certdb_sat.Backend
module Cq = Certdb_query.Cq
module Ucq = Certdb_query.Ucq
module Instance = Certdb_relational.Instance
module Parse = Certdb_relational.Parse
open Workloads

(* ---- spans ----------------------------------------------------------- *)

type span = {
  name : string;
  id : int;
  parent : int;  (** -1 for a request's root *)
  rid : int;  (** request id: the root's own id *)
  label : string;  (** roots: the request's kind; "" below *)
  start_ms : float;
  end_ms : float;
}

type recorder = {
  on : bool;
  mutable spans : span list;
  mutable count : int;
  mutable stack : (int * int) list;  (** open (id, rid), innermost first *)
}

let recorder on = { on; spans = []; count = 0; stack = [] }

let with_span ?(label = "") r name f =
  if not r.on then f ()
  else begin
    let id = r.count in
    r.count <- id + 1;
    let parent, rid = match r.stack with (p, q) :: _ -> (p, q) | [] -> (-1, id) in
    r.stack <- (id, rid) :: r.stack;
    let start_ms = Serve.now_ms () in
    let finish () =
      r.stack <- List.tl r.stack;
      r.spans <- { name; id; parent; rid; label; start_ms; end_ms = Serve.now_ms () } :: r.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let route_name = function
  | Plan.Naive_eval -> "naive_eval"
  | Plan.Acyclic_join -> "acyclic_join"
  | Plan.Bounded_width _ -> "bounded_width"
  | Plan.Components _ -> "components"
  | Plan.Hom_ladder -> "hom_ladder"
  | Plan.Fd_naive _ -> "fd_naive"
  | Plan.Sat_backend _ -> "sat"

(* ---- the pipeline ---------------------------------------------------- *)

module Server = Certdb_service.Server

type state = {
  r : recorder;
  registry : (string, Instance.t * string) Hashtbl.t;
  cache : Server.answer Cache.t;
  memo : string option Cache.t;
  jobs : int;
}

let fresh on =
  {
    r = recorder on;
    registry = Hashtbl.create 4;
    cache = Cache.create ~namespace:"bench.replay.cache" ~capacity:1024 ();
    memo = Cache.create ~namespace:"bench.replay.canon" ~capacity:4096 ();
    jobs = Engine.Batch.default_jobs ();
  }

let fail fmt = Printf.ksprintf failwith fmt
let ok_or what = function Ok v -> v | Error m -> fail "replay %s: %s" what m

let answer_fields a =
  (match a with
  | Server.Graded g ->
    let grade, b = match g with `Exact b -> ("exact", b) | `Lower_bound b -> ("lower-bound", b) in
    [ ("status", Json.String "ok"); ("grade", Json.String grade); ("certain", Json.Bool b) ]
  | Server.Tuples d ->
    [ ("status", Json.String "ok"); ("grade", Json.String "exact");
      ("answers", Json.String (Parse.to_string d)) ])
  @ [ ("cached", Json.Bool false); ("latency_ms", Json.Float 0.0) ]

let format st ~idx ~op fields =
  with_span st.r "wire.format" (fun () ->
      Json.to_string (Wire.row ~idx ~id:(string_of_int idx) ~op fields))

let query st ~idx j =
  let sp name f = with_span st.r name f in
  let field k = ok_or k (Option.to_result ~none:("missing " ^ k) (Wire.str_field k j)) in
  let inst, fp = Hashtbl.find st.registry (field "db") in
  let qs = field "query" in
  let backend =
    match Wire.str_field "backend" j with
    | None -> Backend.Csp
    | Some b -> Option.get (Backend.choice_of_string b)
  in
  let parse () = sp "wire.cq_parse" (fun () -> ok_or "query" (Wire.parse_cq_result qs)) in
  let ck, parsed =
    match sp "canon.memo_find" (fun () -> Cache.find st.memo qs) with
    | Some (ck, _) -> (ck, None)
    | None ->
      let q = parse () in
      let ck = sp "canon.cq_key" (fun () -> Canon.cq_key q) in
      sp "canon.memo_add" (fun () -> Cache.add st.memo qs ~cost_ms:0.0 ck);
      (ck, Some q)
  in
  let key = Option.map (fun ck -> fp ^ "|" ^ ck) ck in
  let hit =
    match key with
    | None ->
      Cache.bypass st.cache;
      None
    | Some k -> Option.map fst (sp "cache.find" (fun () -> Cache.find st.cache k))
  in
  let a =
    match hit with
    | Some a -> a
    | None ->
      let q = match parsed with Some q -> q | None -> parse () in
      let route = sp "plan.route" (fun () -> (Plan.route_cq ~backend q).Plan.route) in
      let a =
        sp ("solve." ^ route_name route) (fun () ->
            if q.Cq.head = [] then Server.Graded (Plan.certain ~jobs:st.jobs ~backend q inst)
            else Server.Tuples (Plan.certain_answers (Ucq.make [ q ]) inst))
      in
      Option.iter
        (fun k ->
          let footprint = sp "footprint.of_cq" (fun () -> Footprint.of_cq q) in
          sp "cache.add" (fun () -> Cache.add st.cache k ~footprint ~cost_ms:0.0 a))
        key;
      a
  in
  ignore (format st ~idx ~op:"query" (answer_fields a));
  a

let load st ~idx ~name ~source =
  let d = with_span st.r "wire.instance_parse" (fun () -> ok_or "load" (Wire.parse_instance_result source)) in
  let fp = with_span st.r "canon.fingerprint" (fun () -> Canon.db_fingerprint d) in
  Hashtbl.replace st.registry name (d, fp);
  ignore (format st ~idx ~op:"load" [ ("status", Json.String "ok"); ("fingerprint", Json.String fp) ])

let invalidate st ~idx ~db ~rel =
  let _, fp = Hashtbl.find st.registry db in
  let n =
    with_span st.r "cache.invalidate" (fun () ->
        Cache.invalidate ~key_prefix:(fp ^ "|") st.cache (Footprint.touch_rel rel))
  in
  ignore (format st ~idx ~op:"invalidate" [ ("status", Json.String "ok"); ("invalidated", Json.Int n) ])

let line fields = Json.to_string (Json.Obj fields)

let load_request st ~idx ~name ~source =
  let text = line (Serve.load_fields ~name ~source) in
  with_span ~label:"load" st.r "request" (fun () ->
      let j = with_span st.r "wire.json_parse" (fun () -> Json.of_string text) in
      load st ~idx ~name ~source:(Option.get (Wire.str_field "source" j)))

(* One request, from its wire line to its response line, under a root
   span.  Query answers are checked against the oracle here too. *)
let request st ~pass ~idx item =
  let root label f = with_span ~label st.r "request" f in
  match item with
  | Query q ->
    let text = line (("id", Json.String (string_of_int idx)) :: Serve.query_fields ~pass q) in
    let a =
      root q.kind (fun () ->
          let j = with_span st.r "wire.json_parse" (fun () -> Json.of_string text) in
          query st ~idx j)
    in
    let got =
      match a with
      | Server.Graded (`Exact b) -> Model.Certain b
      | Server.Graded (`Lower_bound _) -> fail "replay: %s graded lower-bound" q.text
      | Server.Tuples d -> Model.Answers (Model.answers_of_wire (Parse.to_string d))
    in
    if got <> q.expect then fail "replay: wrong answer to %s" q.text
  | Write w ->
    load_request st ~idx ~name:w.wdb ~source:w.wsource;
    let text = line (Serve.invalidate_fields w) in
    root "invalidate" (fun () ->
        let j = with_span st.r "wire.json_parse" (fun () -> Json.of_string text) in
        invalidate st ~idx ~db:w.wdb ~rel:(Option.get (Wire.str_field "rel" j)))

(* [run ~on ?budget_s ~setup ~main ()] replays the set-up loads, then
   [main] until it ends or [budget_s] has passed.  Returns the recorder,
   how many [main] items ran, and the wall time. *)
let run ~on ?budget_s ~setup ~main () =
  let st = fresh on in
  let t0 = Serve.now_ms () in
  List.iteri (fun idx (name, source) -> load_request st ~idx ~name ~source) setup;
  let over () =
    match budget_s with
    | Some b -> Serve.now_ms () -. t0 > 1000.0 *. b
    | None -> false
  in
  let rec go k = function
    | [] -> k
    | _ when over () -> k
    | (idx, pass, item) :: rest ->
      request st ~pass ~idx item;
      go (k + 1) rest
  in
  let k = go 0 main in
  (st.r, k, (Serve.now_ms () -. t0) /. 1000.0)

(* ---- derived per-layer figures ---------------------------------------- *)

let durations r name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.end_ms -. s.start_ms) else None)
    r.spans

(* Self time of every span: its duration minus what its children cover
   (children of one span never overlap: the replay is sequential). *)
let self_times r =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value (Hashtbl.find_opt child s.parent) ~default:0.0
          +. (s.end_ms -. s.start_ms)))
    r.spans;
  List.map
    (fun s ->
      (s, s.end_ms -. s.start_ms -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0))
    r.spans

(* Chrome trace-event JSON: load it in Perfetto or about:tracing. *)
let write_chrome r path =
  let t0 = List.fold_left (fun m s -> Float.min m s.start_ms) infinity r.spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"rid\":%d,\"kind\":%S}}"
        s.name
        (1000.0 *. (s.start_ms -. t0))
        (1000.0 *. (s.end_ms -. s.start_ms))
        s.id s.parent s.rid s.label)
    (List.rev r.spans);
  output_string oc "]}\n";
  close_out oc
