WITH RECURSIVE thread(msg, root) AS (
  SELECT DISTINCT r.id1 AS msg, r.id2 AS root FROM Message_REPLY_OF_Message AS r
  UNION
  SELECT DISTINCT r.id1 AS msg, t.root AS root
  FROM thread AS t, Message_REPLY_OF_Message AS r
  WHERE r.id2 = t.msg
)
SELECT DISTINCT thread.msg AS msg, thread.root AS root FROM thread;
