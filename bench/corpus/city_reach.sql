WITH RECURSIVE reach(src, dst) AS (
  SELECT DISTINCT k.id1 AS src, k.id2 AS dst FROM Person_KNOWS_Person AS k
  UNION
  SELECT DISTINCT r.src AS src, k.id2 AS dst
  FROM reach AS r, Person_KNOWS_Person AS k
  WHERE r.dst = k.id1
)
SELECT DISTINCT p.firstName AS firstName, c.name AS city
FROM reach AS r, Person AS p, Person_IS_LOCATED_IN_City AS l, City AS c
WHERE r.src = 1 AND r.dst = p.id AND l.id1 = p.id AND l.id2 = c.id
