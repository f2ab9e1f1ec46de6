SELECT k.id1 AS person, COUNT(k.id2) AS degree
FROM Person_KNOWS_Person AS k
GROUP BY k.id1
