module Json = Gossip_util.Json

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* Bounded connect: non-blocking [connect], then wait for writability
   under a deadline.  Without this a black-holed peer (SYN swallowed, no
   RST — a dead VM, a dropped route) wedges the caller in the kernel's
   minutes-long connect timeout; reads were already deadline-bounded
   ({!Resilient_client}), the connect path was the remaining hole. *)
let connect_deadline fd addr ~timeout_ms =
  Unix.set_nonblock fd;
  let finish_blocking () = Unix.clear_nonblock fd in
  (match Unix.connect fd addr with
  | () -> finish_blocking ()
  | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _) -> (
      let timeout_s = float_of_int timeout_ms /. 1000.0 in
      match Unix.select [] [ fd ] [] timeout_s with
      | _, [], _ ->
          raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
      | _ -> (
          (* writable: the handshake finished — successfully or not;
             the verdict is in SO_ERROR *)
          match Unix.getsockopt_error fd with
          | None -> finish_blocking ()
          | Some err -> raise (Unix.Unix_error (err, "connect", "")))))

let connect ?connect_timeout_ms listen =
  let domain =
    match listen with
    | Server.Unix_socket _ -> Unix.PF_UNIX
    | Server.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try
     match connect_timeout_ms with
     | Some ms when ms > 0 ->
         connect_deadline fd (Server.sockaddr listen) ~timeout_ms:ms
     | _ -> Unix.connect fd (Server.sockaddr listen)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let rec connect_retry ?(attempts = 50) ?(delay = 0.1) ?connect_timeout_ms listen
    =
  match connect ?connect_timeout_ms listen with
  | c -> c
  | exception (Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) as e) ->
      if attempts <= 1 then raise e
      else begin
        Thread.delay delay;
        connect_retry ~attempts:(attempts - 1) ~delay ?connect_timeout_ms
          listen
      end

let send_line c s =
  output_string c.oc s;
  output_char c.oc '\n';
  flush c.oc

let recv c =
  match Wire.read_frame c.ic ~max_bytes:(16 * 1024 * 1024) with
  | Error Wire.Eof -> Error "connection closed by server"
  | Error Wire.Oversized -> Error "response frame too large"
  | exception (Sys_error _ | Unix.Unix_error _) ->
      Error "connection lost"
  | Ok line -> (
      match Json.of_string line with
      | Error e -> Error (Printf.sprintf "garbled response: %s" e)
      | Ok j -> Wire.parse_response j)

let call c ?(id = Json.Null) ?timeout_ms ?trace op =
  let req = { Wire.id; op; timeout_ms; trace } in
  match
    Wire.write_frame c.oc (Wire.request_to_json req)
  with
  | () -> recv c
  | exception (Sys_error _ | Unix.Unix_error _) -> Error "connection lost"

let close c = close_out_noerr c.oc
let fd c = c.fd
