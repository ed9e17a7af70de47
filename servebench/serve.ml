(* The socket side: spawn `certdb serve --socket`, set it up, drive the
   measured phase from one closed-loop Service.Client that waits for
   every reply, and read the server's counters and peak RSS. *)

module Obs = Certdb_obs.Obs
module Json = Obs.Json
module Client = Certdb_service.Client
module Wire = Certdb_service.Wire
open Workloads

(* monotonic, nanosecond resolution *)
let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

(* ---- the server process ---------------------------------------------- *)

type server = { pid : int; sock : string }

let live : int list ref = ref []

(* Any exit path — a failed check, an exception — kills and reaps every
   server still running, so no process outlives the benchmark. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let client ?(timeout_ms = 120_000.0) sock =
  Client.connect
    ~config:(Client.Config.make ~request_timeout_ms:timeout_ms ~max_retries:0 ())
    ~path:sock ()

let request c fields =
  match Client.request c fields with
  | Ok j when Wire.str_field "status" j = Some "ok" -> Ok j
  | Ok j -> Error (Json.to_string j)
  | Error m -> Error m

let request_exn c fields =
  match request c fields with Ok j -> j | Error m -> failwith m

let load_fields ~name ~source =
  [ ("op", Json.String "load"); ("name", Json.String name);
    ("source", Json.String source) ]

let invalidate_fields w =
  [ ("op", Json.String "invalidate"); ("rel", Json.String w.wrel);
    ("db", Json.String w.wdb) ]

(* Spawn, wait for the socket, load every db, answer one ping: the span
   [setup_s] measures. *)
let start ~exe ~dir ~dbs =
  let sock = Filename.concat dir (Printf.sprintf "s%d.sock" (Unix.getpid ())) in
  (try Sys.remove sock with Sys_error _ -> ());
  let log = Filename.concat dir "server.log" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = now_ms () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; sock; "--conns"; "1" |]
      null null err
  in
  Unix.close null;
  Unix.close err;
  live := pid :: !live;
  let rec await_socket () =
    if now_ms () -. t0 > 30_000.0 then failwith "server socket never appeared"
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | p, _ when p = pid ->
        live := List.filter (( <> ) pid) !live;
        failwith ("certdb serve exited during start-up; see " ^ log)
      | _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let up =
          try
            Unix.connect fd (Unix.ADDR_UNIX sock);
            true
          with Unix.Unix_error _ -> false
        in
        Unix.close fd;
        if not up then (
          Unix.sleepf 0.0002;
          await_socket ())
  in
  await_socket ();
  let c = client sock in
  List.iter (fun (name, source) -> ignore (request_exn c (load_fields ~name ~source))) dbs;
  (match Client.ping c with Ok _ -> () | Error m -> failwith ("ping: " ^ m));
  let setup_s = (now_ms () -. t0) /. 1000.0 in
  Client.close c;
  ({ pid; sock }, setup_s)

let stop s =
  let c = client ~timeout_ms:10_000.0 s.sock in
  (match Client.request c [ ("op", Json.String "shutdown") ] with
  | Ok _ -> ()
  | Error _ -> ( try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  Client.close c;
  ignore (Unix.waitpid [] s.pid);
  live := List.filter (( <> ) s.pid) !live

(* Peak resident set of the server, in MB, from /proc. *)
let peak_rss_mb s =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> nan
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Every counter of the server's Obs registry. *)
let counters s =
  let c = client s.sock in
  let j = request_exn c [ ("op", Json.String "stats"); ("full", Json.Bool true) ] in
  Client.close c;
  let tbl = Hashtbl.create 256 in
  (match Option.bind (Json.member "metrics" j) (Json.member "counters") with
  | Some (Json.Obj kvs) ->
    List.iter (function k, Json.Int v -> Hashtbl.replace tbl k v | _ -> ()) kvs
  | _ -> failwith "stats: no counters");
  tbl

let delta before after name =
  let get t = Option.value (Hashtbl.find_opt t name) ~default:0 in
  get after - get before

(* ---- requests and their checks --------------------------------------- *)

type outcome =
  | Ok_reply
  | Failed of string  (** error row, shed, or client give-up *)
  | Wrong of string  (** answered, but not the oracle's answer *)

type sample = {
  idx : int;  (** position in the workload's item stream *)
  write : bool;
  rtt_ms : float;
  server_ms : float;  (** the response's own latency_ms; nan for writes *)
  outcome : outcome;
  invalidated : int;  (** writes: entries the invalidate dropped *)
}

let query_fields ~pass (q : query_req) =
  [ ("op", Json.String "query"); ("db", Json.String q.db);
    ("query", Json.String (text_at q ~pass)) ]
  @ match q.backend with Some b -> [ ("backend", Json.String b) ] | None -> []

let check (q : query_req) j =
  let got =
    match (Json.member "certain" j, Json.member "answers" j) with
    | Some (Json.Bool b), _ -> (
      match Wire.str_field "grade" j with
      | Some "exact" -> Ok (Model.Certain b)
      | g -> Error (Printf.sprintf "grade %s" (Option.value g ~default:"?")))
    | _, Some (Json.String s) -> Ok (Model.Answers (Model.answers_of_wire s))
    | _ -> Error "no answer field"
  in
  match got with
  | Ok a when a = q.expect -> Ok_reply
  | Ok a ->
    Wrong
      (Printf.sprintf "%s: got %s, expected %s" q.text (Model.expect_to_string a)
         (Model.expect_to_string q.expect))
  | Error m -> Wrong (Printf.sprintf "%s: %s" q.text m)

let send_query c ~pass idx q =
  let fields = query_fields ~pass q in
  let t0 = now_ms () in
  let r = Client.request c fields in
  let rtt_ms = now_ms () -. t0 in
  let outcome, server_ms =
    match r with
    | Error m -> (Failed m, nan)
    | Ok j -> (
      match Wire.str_field "status" j with
      | Some "ok" ->
        (check q j, Option.value (Wire.float_field "latency_ms" j) ~default:nan)
      | _ -> (Failed (Json.to_string j), nan))
  in
  { idx; write = false; rtt_ms; server_ms; outcome; invalidated = 0 }

(* A write is the reload of a db followed by the invalidation of the
   relation the new version changed, scoped to that db. *)
let send_write c idx w =
  let t0 = now_ms () in
  let r =
    match request c (load_fields ~name:w.wdb ~source:w.wsource) with
    | Error m -> Error m
    | Ok _ -> request c (invalidate_fields w)
  in
  let rtt_ms = now_ms () -. t0 in
  match r with
  | Error m ->
    { idx; write = true; rtt_ms; server_ms = nan; outcome = Failed m; invalidated = 0 }
  | Ok j ->
    {
      idx; write = true; rtt_ms; server_ms = nan; outcome = Ok_reply;
      invalidated = Option.value (Wire.int_field "invalidated" j) ~default:(-1);
    }

let send c ~pass idx = function
  | Query q -> send_query c ~pass idx q
  | Write w -> send_write c idx w

(* ---- the measured phase ---------------------------------------------- *)

(* The caller's samples while they are taken: one flat array of unboxed
   floats, so that a phase of a million requests leaves nothing for the
   benchmark's own GC to scan, and pauses of the measuring process do not
   show up as server latency.  The rare non-ok outcomes are kept apart. *)
module Log = struct
  let width = 5

  type t = {
    mutable n : int;
    mutable cols : Float.Array.t;
    notes : (int, outcome) Hashtbl.t;
  }

  let create () = { n = 0; cols = Float.Array.make (width * 4096) 0.0; notes = Hashtbl.create 8 }

  let add t x =
    if width * (t.n + 1) > Float.Array.length t.cols then begin
      let bigger = Float.Array.make (2 * Float.Array.length t.cols) 0.0 in
      Float.Array.blit t.cols 0 bigger 0 (Float.Array.length t.cols);
      t.cols <- bigger
    end;
    let set i v = Float.Array.set t.cols ((width * t.n) + i) v in
    set 0 (float_of_int x.idx);
    set 1 (if x.write then 1.0 else 0.0);
    set 2 x.rtt_ms;
    set 3 x.server_ms;
    set 4 (float_of_int x.invalidated);
    if x.outcome <> Ok_reply then Hashtbl.replace t.notes t.n x.outcome;
    t.n <- t.n + 1

  let samples t =
    List.init t.n (fun k ->
        let f i = Float.Array.get t.cols ((width * k) + i) in
        {
          idx = int_of_float (f 0); write = f 1 = 1.0; rtt_ms = f 2; server_ms = f 3;
          invalidated = int_of_float (f 4);
          outcome = Option.value (Hashtbl.find_opt t.notes k) ~default:Ok_reply;
        })
end

(* One closed-loop caller walks the item stream in order and sends each
   item only after the reply to the previous one.  Ends when [seconds]
   have passed, or at the end of a non-cyclic stream.  Returns the
   samples in stream order, the wall time, and the throughput: completed
   queries per second of the phase. *)
let phase s (w : Workloads.t) ~seconds =
  let n = Array.length w.items in
  let c = client s.sock and log = Log.create () in
  Gc.compact ();
  let t0 = now_ms () in
  let deadline = t0 +. (1000.0 *. float_of_int seconds) in
  let rec loop i =
    if now_ms () < deadline && (w.cyclic || i < n) then begin
      Log.add log (send c ~pass:(i / n) i w.items.(i mod n));
      loop (i + 1)
    end
  in
  loop 0;
  let wall_s = (now_ms () -. t0) /. 1000.0 in
  Client.close c;
  let samples = Log.samples log in
  let completed = List.filter (fun x -> (not x.write) && x.outcome = Ok_reply) samples in
  (samples, wall_s, float_of_int (List.length completed) /. wall_s)
